"""Compare two ``bench_e2e.py --out`` reports: ``compare.py A.json B.json``.

A is the parent (or the first set of runs), B the change (or the second
set).  Per workload and end-to-end metric, B may be worse than A by at
most the metric's bound.  When either side's IQR exceeds the bound the
pair is *unresolved*, not unchanged, unless every sample of B beats every
sample of A.  Fingerprints, ``failed_frac`` = 0 and every metric marked
exact in ``spec.py`` must agree exactly.  Reports taken with a different
kernel backend, ``nproc``, seed, size or trace mode are refused (exit 2).
Exit 1 on a regression or a mismatch, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spec import END_TO_END, PER_LAYER


def refusal(a: dict, b: dict) -> str | None:
    """Why the two reports cannot be compared at all, if they cannot."""
    for key in ("kernel_backend", "nproc"):
        if a["machine"][key] != b["machine"][key]:
            return f"machine.{key} differs: {a['machine'][key]} vs {b['machine'][key]}"
    for key in ("schema", "seed", "size", "trace"):
        if a[key] != b[key]:
            return f"{key} differs: {a[key]} vs {b[key]}"
    return None


def judge(metric, a: dict, b: dict) -> tuple[str, float]:
    """``(status, relative worsening of B over A)`` for one metric."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(a["iqr"] / a["value"], b["iqr"] / b["value"])
    if spread > metric.bound:
        b_always_better = (
            b["max"] < a["min"] if metric.better == "lower" else b["min"] > a["max"]
        )
        return ("ok" if b_always_better else "unresolved"), worse
    return ("regression" if worse > metric.bound else "ok"), worse


def compare(a: dict, b: dict, out=sys.stdout) -> bool:
    """Print the comparison; True when B holds up against A."""
    good = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"== {name}", file=out)
        if wa["fingerprint"] != wb["fingerprint"]:
            good = False
            print(f"   MISMATCH fingerprint {wa['fingerprint']} vs {wb['fingerprint']}", file=out)
        for side, report in (("A", wa), ("B", wb)):
            if report["failed"]:
                good = False
                print(f"   FAILED {side}: {report['failed']} of {report['attempted']}"
                      f" iterations ({report['errors']})", file=out)
        if "end_to_end" in wa and "end_to_end" in wb:
            for metric in END_TO_END:
                status, worse = judge(
                    metric, wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
                )
                good = good and status != "regression"
                print(f"   {status:10s} {metric.name:12s} "
                      f"{wa['end_to_end'][metric.name]['value']:.4f} -> "
                      f"{wb['end_to_end'][metric.name]['value']:.4f} {metric.unit} "
                      f"({worse:+.1%} worse, bound {metric.bound:.0%})", file=out)
        if "per_layer" in wa and "per_layer" in wb:
            exact = [m.name for m in PER_LAYER if m.exact]
            for metric in exact:
                va = wa["per_layer"][metric]["value"]
                vb = wb["per_layer"][metric]["value"]
                if va != vb:
                    good = False
                    print(f"   MISMATCH {metric}: {va} vs {vb} (exact)", file=out)
            if wa["replay_fingerprint"] != wb["replay_fingerprint"]:
                good = False
                print("   MISMATCH replay fingerprint", file=out)
            print(f"   checked {len(exact)} exact per-layer metrics", file=out)
    return good


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a, b = (json.loads(Path(p).read_text()) for p in paths)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"compare: cannot read a report: {exc}", file=sys.stderr)
        return 2
    why = refusal(a, b)
    if why:
        print(f"compare: refusing, {why}", file=sys.stderr)
        return 2
    good = compare(a, b)
    print("PASS" if good else "FAIL")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
