"""Task 1 scaling on the task-pool executor: G GaneSH chains, 1/2/4 workers.

The paper distributes Task 1 first — the G co-clustering chains are
communication-free, so they scale trivially across workers (Section
3.2.1's group parallelism).  This benchmark measures that on the real
process pool: the same G-run ensemble at 1, 2 and 4 workers on a
synthetic yeast-shaped matrix, with every configuration's output asserted
bit-identical to the sequential learner (the consistency contract that
makes the speedup meaningful).  The record lands in
``benchmarks/results/BENCH_task1.json``.

The speedup acceptance threshold is only enforced when the machine
actually has multiple cores to scale onto; the bit-identity assertion is
unconditional.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import BENCH_SEED
from repro.bench import render_table, save_results
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import yeast_like

#: sized so that T_1 stays above ~1 s and pool start-up a small share of the
#: 4-worker time, which is what gives the ``speedup4 >= 1.5`` gate its
#: headroom: 8 chains were ~0.70 s until the observation sweeps went native
#: (PR 18) and ~0.43 s after; 24 are ~1.27 s (2-vCPU reference box).  Kept a
#: multiple of every worker count so no worker idles through a last round.
G_RUNS = 24
WORKER_COUNTS = (1, 2, 4)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_task1_scaling(capsys):
    matrix = yeast_like(scale=1 / 48).matrix
    config = LearnerConfig(
        n_ganesh_runs=G_RUNS,
        n_update_steps=2,
        init_var_clusters=1 / 8,
    )

    times: dict[int, float] = {}
    ensembles: dict[int, list[np.ndarray]] = {}
    for n_workers in WORKER_COUNTS:
        learner = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_workers=n_workers))
        )
        t0 = time.perf_counter()
        ensembles[n_workers] = learner.sample_clusterings(matrix, seed=BENCH_SEED)
        times[n_workers] = time.perf_counter() - t0

    reference = ensembles[1]
    for n_workers in WORKER_COUNTS[1:]:
        assert len(ensembles[n_workers]) == G_RUNS
        for got, want in zip(ensembles[n_workers], reference):
            np.testing.assert_array_equal(
                got, want, err_msg=f"run diverged at {n_workers} workers"
            )

    rows = [
        [w, f"{times[w]:.2f}", f"{times[1] / times[w]:.2f}x"]
        for w in WORKER_COUNTS
    ]
    table = render_table(
        f"Task 1: {G_RUNS} GaneSH runs on {matrix.n_vars} x {matrix.n_obs} "
        "(bit-identical ensembles)",
        ["workers", "time (s)", "speedup"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)

    cores = _available_cores()
    speedup4 = times[1] / times[4]
    save_results(
        "BENCH_task1",
        {
            "g_runs": G_RUNS,
            "shape": list(matrix.shape),
            "cores_available": cores,
            "times_s": {str(w): times[w] for w in WORKER_COUNTS},
            "speedup_2": times[1] / times[2],
            "speedup_4": speedup4,
            "bit_identical": True,
        },
    )
    if cores >= 4:
        assert speedup4 >= 1.5, (
            f"Task 1 must reach >= 1.5x at 4 workers on {cores} cores, "
            f"got {speedup4:.2f}x"
        )
