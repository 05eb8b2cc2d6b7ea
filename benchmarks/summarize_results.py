#!/usr/bin/env python
"""Summarize archived benchmark results for EXPERIMENTS.md maintenance.

Reads ``benchmarks/results/*.json`` (written by the benchmark harness) and
prints the headline paper-vs-measured numbers in one screen, so the tables
in EXPERIMENTS.md can be refreshed after a re-measurement.

Run:  python benchmarks/summarize_results.py
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def _load(name: str) -> dict | None:
    path = RESULTS / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else None


def main() -> None:
    table1 = _load("table1")
    if table1:
        lo, hi = table1["speedup_range"]
        identical = all(c["identical"] for c in table1["cells"].values())
        print(f"table1: speedup {lo:.1f}-{hi:.1f}x (paper 3.6-3.8x); "
              f"identical networks: {identical}")

    fig3 = _load("fig3")
    if fig3:
        exps = ", ".join(
            f"n={n}: {e:.2f}" for n, e in sorted(fig3["fitted_m_exponents"].items(), key=lambda kv: int(kv[0]))
        )
        print(f"fig3: m-exponents {exps} (paper ~2.0)")

    fig4 = _load("fig4")
    if fig4:
        exps = ", ".join(
            f"m={m}: {e:.2f}" for m, e in sorted(fig4["fitted_n_exponents"].items(), key=lambda kv: int(kv[0]))
        )
        ks = ", ".join(f"{n}:{k}" for n, k in sorted(fig4["module_counts"].items(), key=lambda kv: int(kv[0])))
        print(f"fig4: n-exponents {exps} (paper 1.8-2.0); K(n) {ks}")

    fig5a = _load("fig5a")
    if fig5a:
        frac = fig5a["modules_fraction"]
        ordered = sorted(frac.items(), key=lambda kv: int(kv[0]))
        print(f"fig5a: modules share {100 * ordered[0][1]:.0f}% -> "
              f"{100 * ordered[-1][1]:.0f}% over the m sweep (paper 94.7->99.4%)")

    fig5b = _load("fig5b")
    if fig5b and "paper_scale_speedups" in fig5b:
        big = max(fig5b["paper_scale_speedups"], key=lambda k: int(k.split("=")[1]))
        curve = fig5b["paper_scale_speedups"][big]
        print(f"fig5b (paper scale, {big}): {curve['64']:.0f}x at p=64 "
              f"({curve['64'] / 64:.0%}), {curve['1024']:.0f}x at p=1024 "
              f"(paper: 48x/75% and 273.9-288.3x)")

    imb = _load("sec531_imbalance")
    if imb:
        vals = imb["imbalance"]
        print(f"sec5.3.1: imbalance {vals['64']:.2f}@64, {vals['128']:.2f}@128, "
              f"{vals['1024']:.2f}@1024 (paper <0.3, 0.5, 2.6)")

    fig6 = _load("fig6")
    if fig6:
        print(f"fig6: rel speedup 4->128 {fig6['rel_speedup_4_128']:.1f}x "
              f"(paper 22.6x); 4->4096 {fig6['rel_speedup_4_4096']:.1f}x "
              f"(paper 239.3x); T_4096 "
              f"{fig6['paper_scale_hours']['4096'] * 60:.0f} min (paper 23.5)")

    table2 = _load("table2")
    if table2:
        sp = table2["speedup_vs_256"]
        print(f"table2: speedup vs 256 at 4096 = {sp['4096']:.1f}x "
              f"(paper 11.2x); thaliana eff {table2['thaliana_rel_eff_4096']:.0%} "
              f"vs yeast {table2['yeast_rel_eff_4096']:.0%} (paper 69.9% vs ~47%)")

    est = _load("sec522_estimates")
    if est:
        band = est.get("reference_multiplier_band") or [None, None]
        band_str = (
            f"x{band[0]:.1f}-{band[1]:.1f}" if band[0] is not None else "n/a"
        )
        print(f"sec5.2.2: m-exp {est['fitted_m_exponent']:.2f}, "
              f"n-exp {est['fitted_n_exponent']:.2f}, verification error "
              f"{est['verification_error']:.0%}; yeast "
              f"{est['yeast_full_scale_days']:.1f} d, thaliana "
              f"{est['thaliana_full_scale_days']:.0f} d; baseline multiplier {band_str}")

    part = _load("ablation_partitioning")
    if part:
        row = part.get("1024", {})
        if row:
            print(f"ablation partitioning @1024: per-node "
                  f"{row['per_node_imbalance']:.1f}, flat "
                  f"{row['flat_imbalance']:.2f}, dyn-LPT "
                  f"{row['lpt_imbalance']:.2f}")

    kern = _load("BENCH_kernel")
    if kern:
        print(f"kernel: lazy {kern['speedup']:.2f}x vs materialized "
              f"(P={kern['n_parents']}, n_obs={kern['n_obs']}); memo hit rate "
              f"{kern['memo_hit_rate']:.0%} ({kern['memo_hits']} hits / "
              f"{kern['memo_evaluations']} evals), peak chunk "
              f"{kern['peak_chunk_elements']} elems; "
              f"bit-identical: {kern['bit_identical']}")

    kern_native = _load("BENCH_kernel_native")
    if kern_native:
        totals = kern_native.get("kernel_totals") or {}
        backends = "+".join(totals.get("backends", [])) or "n/a"
        print(f"kernel-native: {kern_native['speedup']:.2f}x vs numpy oracle "
              f"(provider {kern_native['provider']}, backends {backends}); "
              f"{kern_native['memo_hits']} hits / "
              f"{kern_native['memo_evaluations']} evals per backend, peak chunk "
              f"{kern_native['peak_chunk_elements']} elems; "
              f"bit-identical: {kern_native['bit_identical']}")

    task1 = _load("BENCH_task1")
    if task1:
        print(f"task1: {task1['speedup_2']:.2f}x@2w, "
              f"{task1['speedup_4']:.2f}x@4w ({task1['g_runs']} runs); "
              f"bit-identical: {task1['bit_identical']}")

    shard = _load("BENCH_shard")
    if shard:
        cal = shard.get("calibration") or {}
        tau, mu = cal.get("tau"), cal.get("mu")
        wire = (f"tau={tau:.3g}s mu={mu:.3g}s/word"
                if tau is not None else "uncalibrated")
        print(f"shard: {shard['speedup_2']:.2f}x@2 nodes "
              f"({shard['g_runs']} runs, "
              f"{shard['cores_available']} cores); wire {wire}; "
              f"{shard['transfer_bytes']} B in "
              f"{shard['transfer_seconds']:.3f}s; "
              f"bit-identical: {shard['bit_identical']}")

    genomica = _load("extension_genomica")
    if genomica:
        sp = genomica.get("speedups_genome_scale", genomica.get("speedups", {}))
        print(f"extension genomica: {sp.get('32', 0):.1f}x@32 "
              f"(prior art 29.3x), {sp.get('1024', 0):.1f}x@1024")


if __name__ == "__main__":
    main()
