"""Lazy-margin kernel vs the materialized-margins seed scorer.

Split scoring is the dominant sequential phase (more than 90% of run-time,
Section 2.2.3), so the kernel rewrite targets exactly this micro-kernel:
one node's full candidate-split batch, scored by the Metropolis beta chain
and by GENOMICA's exhaustive grid search.

The baseline below is a verbatim copy of the seed implementation — dense
``(P * n_obs, n_obs)`` margins materialized up front, full rows re-scored
at every chain step, the stable log-sigmoid evaluating its ``log1p`` term
once per branch.  The contender is the shipped path:
:func:`split_kernel_from_arrays` + ``score_batch_kernel`` (lazy margins,
per-(group, beta) memoization, equal-value dedup).

The **bit-identity assertion is unconditional** — every score, step count,
beta index and acceptance flag must match the baseline exactly; this is
what the CI bench-smoke job runs on every PR (with ``REPRO_BENCH_SMOKE=1``
shrinking the problem and disabling the timing gate, which stays enforced
for full local runs).  The record lands in
``benchmarks/results/BENCH_kernel.json``.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from conftest import BENCH_SEED
from repro.bench import render_table, save_results
from repro.data.synthetic import make_module_dataset
from repro.parallel.topology import probe_topology
from repro.rng.streams import SCORE_QUANTUM
from repro.scoring.kernel import CHUNK_ELEMENTS, split_kernel_from_arrays
from repro.scoring.split_score import (
    DEFAULT_BETA_GRID,
    SplitScorer,
    _neighbor,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: node shape: P candidate parents x n_obs observations (bench_config's
#: sampling parameters: the paper's minimum-run-time configuration)
N_PARENTS, N_OBS = (12, 40) if SMOKE else (60, 150)
MAX_STEPS, STOP_REPEATS = 25, 2
REPEATS = 3

_LOG_HALF = math.log(0.5)


# -- the seed implementation, verbatim --------------------------------------


def _baseline_margins(data, obs, left_obs, parents) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.int64)
    sign = np.where(np.isin(obs, left_obs), 1.0, -1.0)
    values = data[np.asarray(parents, dtype=np.int64)][:, obs]
    margins = sign[None, None, :] * (values[:, :, None] - values[:, None, :])
    n_parents, n_obs = values.shape
    return margins.reshape(n_parents * n_obs, n_obs)


def _baseline_scores_at(margins, beta_grid, beta_idx) -> np.ndarray:
    beta = beta_grid[beta_idx]
    z = margins * beta[:, None]
    out = np.where(
        z > 0, -np.log1p(np.exp(-np.abs(z))), z - np.log1p(np.exp(-np.abs(z)))
    )
    scores = out.sum(axis=1)
    return np.round(scores / SCORE_QUANTUM) * SCORE_QUANTUM


def _baseline_score_batch(margins, uniforms, beta_grid, max_steps, stop_repeats):
    margins = np.asarray(margins, dtype=np.float64)
    n_items, n_obs = margins.shape
    n_beta = beta_grid.size

    cur_idx = np.minimum((uniforms[:, 0] * n_beta).astype(np.int64), n_beta - 1)
    cur_score = _baseline_scores_at(margins, beta_grid, cur_idx)
    best_score = cur_score.copy()
    best_idx = cur_idx.copy()
    steps = np.zeros(n_items, dtype=np.int64)
    rejects = np.zeros(n_items, dtype=np.int64)
    active = np.ones(n_items, dtype=bool)

    for step in range(max_steps):
        if not active.any():
            break
        idx_a = np.flatnonzero(active)
        u_prop = uniforms[idx_a, 1 + 2 * step]
        u_acc = uniforms[idx_a, 2 + 2 * step]
        prop = _neighbor(cur_idx[idx_a], u_prop, n_beta)
        prop_score = _baseline_scores_at(margins[idx_a], beta_grid, prop)
        accept = np.log(np.maximum(u_acc, 1e-300)) < (prop_score - cur_score[idx_a])
        steps[idx_a] += 1

        acc_rows = idx_a[accept]
        cur_idx[acc_rows] = prop[accept]
        cur_score[acc_rows] = prop_score[accept]
        rejects[acc_rows] = 0
        rej_rows = idx_a[~accept]
        rejects[rej_rows] += 1

        improved = acc_rows[cur_score[acc_rows] > best_score[acc_rows]]
        best_score[improved] = cur_score[improved]
        best_idx[improved] = cur_idx[improved]

        active[rej_rows[rejects[rej_rows] >= stop_repeats]] = False

    best_score = np.round(best_score / SCORE_QUANTUM) * SCORE_QUANTUM
    baseline = round(n_obs * _LOG_HALF / SCORE_QUANTUM) * SCORE_QUANTUM
    accepted = best_score > baseline + SCORE_QUANTUM / 2
    return best_score, steps, best_idx, accepted


def _baseline_grid_best(margins, beta_grid):
    margins = np.asarray(margins, dtype=np.float64)
    n_items, n_obs = margins.shape
    best = np.full(n_items, -np.inf)
    best_idx = np.zeros(n_items, dtype=np.int64)
    for idx in range(beta_grid.size):
        scores = _baseline_scores_at(
            margins, beta_grid, np.full(n_items, idx, dtype=np.int64)
        )
        improved = scores > best
        best[improved] = scores[improved]
        best_idx[improved] = idx
    baseline = round(n_obs * _LOG_HALF / SCORE_QUANTUM) * SCORE_QUANTUM
    accepted = best > baseline + SCORE_QUANTUM / 2
    return best, best_idx, accepted


# -- scenario ----------------------------------------------------------------


def _node_scenario():
    """One realistic node: synthetic module data, halved observations."""
    matrix = make_module_dataset(
        max(N_PARENTS * 2, 64), N_OBS, seed=BENCH_SEED
    ).matrix
    data = matrix.values
    rng = np.random.default_rng(BENCH_SEED)
    parents = rng.choice(data.shape[0], size=N_PARENTS, replace=False).astype(np.int64)
    obs = np.arange(N_OBS, dtype=np.int64)
    left_obs = obs[: N_OBS // 2].copy()
    scorer = SplitScorer(
        beta_grid=DEFAULT_BETA_GRID,
        max_steps=MAX_STEPS,
        stop_repeats=STOP_REPEATS,
    )
    uniforms = rng.random((N_PARENTS * N_OBS, scorer.draws_per_item))
    return data, obs, left_obs, parents, scorer, uniforms


def _best_of(repeats, fn):
    best, result = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_kernel_vs_materialized(capsys):
    data, obs, left_obs, parents, scorer, uniforms = _node_scenario()
    grid = scorer.beta_grid

    def run_baseline():
        margins = _baseline_margins(data, obs, left_obs, parents)
        chain = _baseline_score_batch(
            margins, uniforms, grid, MAX_STEPS, STOP_REPEATS
        )
        best = _baseline_grid_best(margins, grid)
        return margins, chain, best

    def run_kernel():
        # Pinned to the NumPy oracle: this record tracks the lazy-margin
        # rewrite itself; the native backend has its own sweep below.
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, grid)
        chain = scorer.score_batch_kernel(kernel, uniforms)
        best = scorer.score_grid_best_kernel(kernel)
        return kernel, chain, best

    t_base, (margins, base_chain, base_best) = _best_of(REPEATS, run_baseline)
    t_kernel, (kernel, kern_chain, kern_best) = _best_of(REPEATS, run_kernel)

    # Unconditional bit-identity: scores, steps, beta indices, acceptance —
    # chain and exhaustive variants both.
    for name, got, want in zip(
        ("log_scores", "steps", "beta_idx", "accepted"), kern_chain, base_chain
    ):
        np.testing.assert_array_equal(
            got, want, err_msg=f"chain {name} diverged from the seed scorer"
        )
    for name, got, want in zip(
        ("log_scores", "beta_idx", "accepted"), kern_best, base_best
    ):
        np.testing.assert_array_equal(
            got, want, err_msg=f"grid-best {name} diverged from the seed scorer"
        )

    speedup = t_base / t_kernel
    n_items = kernel.n_items
    hit_rate = kernel.hits / max(1, kernel.hits + kernel.evaluations)
    margins_bytes = margins.nbytes
    kernel_bytes = 8 * (kernel.n_items + kernel.peak_chunk_elements)
    rows = [
        ["materialized margins", f"{t_base * 1e3:.1f}", f"{margins_bytes >> 10} KiB", "1.00x"],
        [
            "lazy-margin kernel",
            f"{t_kernel * 1e3:.1f}",
            f"{kernel_bytes >> 10} KiB",
            f"{speedup:.2f}x",
        ],
    ]
    table = render_table(
        f"Node split scoring: P={N_PARENTS}, n_obs={N_OBS}, "
        f"{n_items} candidates (chain + grid-best, bit-identical)",
        ["scorer", "time (ms)", "peak scoring mem", "speedup"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)

    save_results(
        "BENCH_kernel",
        {
            "n_parents": N_PARENTS,
            "n_obs": N_OBS,
            "n_items": n_items,
            "n_groups": kernel.n_groups,
            "max_steps": MAX_STEPS,
            "stop_repeats": STOP_REPEATS,
            "time_baseline_s": t_base,
            "time_kernel_s": t_kernel,
            "speedup": speedup,
            "memo_hit_rate": hit_rate,
            "memo_hits": kernel.hits,
            "memo_evaluations": kernel.evaluations,
            "margins_bytes": margins_bytes,
            "peak_chunk_elements": kernel.peak_chunk_elements,
            "max_chunk_elements": CHUNK_ELEMENTS,
            "topology": probe_topology().describe(),
            "bit_identical": True,
            "smoke": SMOKE,
        },
    )
    # Memoization must be doing real work whatever the machine's speed.
    assert kernel.evaluations <= kernel.n_groups * grid.size
    assert kernel.hits > 0
    if not SMOKE:
        assert speedup >= 2.0, (
            f"lazy-margin kernel must be >= 2x the materialized baseline, "
            f"got {speedup:.2f}x"
        )


def test_native_vs_numpy_kernel(capsys):
    """Backend sweep: the native batch entry (one node's chain, then its
    grid-best search, one ``run_chains`` call each) against the NumPy
    oracle (a lazy kernel per search) on the same node and draws.

    Bit-identity is the unconditional gate — every score, step count and
    beta index, and each search's hits, evaluations and peak temporary,
    must match the NumPy backend exactly (the extension already certified
    itself against NumPy at load, this asserts it end to end at a bench
    shape).  The record lands in
    ``benchmarks/results/BENCH_kernel_native.json``.
    """
    from repro import _native
    from repro.rng.streams import IndexedStream, make_stream
    from repro.scoring.kernel import ChainNode, run_chains, split_sign

    native = _native.load()
    if native is None:
        info = _native.availability()
        pytest.skip(f"native backend unavailable ({info['status']}: {info['detail']})")

    data, obs, left_obs, parents, scorer, _uniforms = _node_scenario()
    grid = scorer.beta_grid
    span = IndexedStream(
        make_stream(BENCH_SEED, "bench-kernel"), scorer.draws_per_item
    ).items_span(0, parents.size * obs.size)
    uniforms = span.array().reshape(-1, scorer.draws_per_item)

    def run_numpy():
        chain_kernel, grid_kernel = (
            split_kernel_from_arrays(data, obs, left_obs, parents, grid) for _ in range(2)
        )
        chain = scorer.score_batch_kernel(chain_kernel, uniforms)[:3]
        best = scorer.score_grid_best_kernel(grid_kernel)[:2]
        counted = [
            (k.hits, k.evaluations, k.peak_chunk_elements) for k in (chain_kernel, grid_kernel)
        ]
        return chain, best, counted

    def run_native():
        uvalues, sign = data[np.ix_(parents, obs)], split_sign(obs, left_obs)
        out, counted = [], []
        for node_span in (span, None):
            *flat, _bounds, (node_counted,), _traffic = run_chains(
                native, uvalues, grid, [ChainNode(np.arange(obs.size), sign, node_span)],
                scorer.max_steps, scorer.stop_repeats, grid=node_span is None,
            )
            out.append([part for part in flat if part is not None])
            counted.append(node_counted)
        return out[0], out[1], counted

    t_numpy, (numpy_chain, numpy_best, numpy_counted) = _best_of(REPEATS, run_numpy)
    t_native, (native_chain, native_best, native_counted) = _best_of(REPEATS, run_native)
    totals = scorer.drain_counters()  # the NumPy sweep's runs

    for name, got, want in zip(("log_scores", "steps", "beta_idx"), native_chain, numpy_chain):
        np.testing.assert_array_equal(
            got, want, err_msg=f"chain {name} diverged between backends"
        )
    for name, got, want in zip(("log_scores", "beta_idx"), native_best, numpy_best):
        np.testing.assert_array_equal(
            got, want, err_msg=f"grid-best {name} diverged between backends"
        )
    # (hits, evaluations, peak_chunk_elements) of each search
    assert native_counted == numpy_counted

    speedup = t_numpy / t_native
    rows = [
        ["numpy (oracle)", f"{t_numpy * 1e3:.1f}", "1.00x"],
        [f"native ({native.provider})", f"{t_native * 1e3:.1f}", f"{speedup:.2f}x"],
    ]
    table = render_table(
        f"Split-kernel backends: P={N_PARENTS}, n_obs={N_OBS}, "
        f"{parents.size * obs.size} candidates (chain + grid-best, bit-identical)",
        ["backend", "time (ms)", "speedup"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)

    save_results(
        "BENCH_kernel_native",
        {
            "n_parents": N_PARENTS,
            "n_obs": N_OBS,
            "n_items": parents.size * obs.size,
            "max_steps": MAX_STEPS,
            "stop_repeats": STOP_REPEATS,
            "time_numpy_s": t_numpy,
            "time_native_s": t_native,
            "speedup": speedup,
            "provider": native.provider,
            "memo_hits": sum(hits for hits, _evaluations, _peak in native_counted),
            "memo_evaluations": sum(evals for _hits, evals, _peak in native_counted),
            "peak_chunk_elements": max(peak for _hits, _evaluations, peak in native_counted),
            "kernel_totals": totals,
            "max_chunk_elements": CHUNK_ELEMENTS,
            "bit_identical": True,
            "smoke": SMOKE,
        },
    )
    if not SMOKE:
        assert speedup >= 2.0, (
            f"native backend must be >= 2x the NumPy kernel at the standard "
            f"bench shape, got {speedup:.2f}x"
        )
