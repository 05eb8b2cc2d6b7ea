"""The executor's schedule sweep on Task 3.

Drives the whole of Task 3 through ``learn_from_modules`` — i.e. through
``open_executor``, the one dispatch seam — on a synthetic workload of many
small modules, once in-process (one worker: the sequential reference) and
then on the 4-worker pool under the one dispatch knob there is: the
**schedule** (``static`` blocks vs ``dynamic`` LPT pulling — the paper's
Section 3.2.3 / Section 6 ablation).

Every configuration's network is asserted bit-identical to the one-worker
reference, unconditionally: the CI bench-smoke job runs this file on every
PR (``REPRO_BENCH_SMOKE=1`` only shrinks the workload), so a dispatch path
that changed any output fails CI.

The workload is deliberately module-rich and per-module-light: that is the
regime where dispatch overhead is visible, and it is also the common real
regime (the paper's consensus clustering yields tens to hundreds of
modules).  The record is persisted as
``benchmarks/results/BENCH_executor.json``.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SEED
from repro.bench import render_table, save_results
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import make_module_dataset

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_WORKERS = 4
N_MODULES = 8 if SMOKE else 32


def _workload():
    config = LearnerConfig(
        max_sampling_steps=5,
        # A capped candidate-parent list keeps per-module compute small so
        # the executor's fixed costs (pool construction, matrix shipping,
        # dispatch) are what the measurement exposes.
        candidate_parents=tuple(range(16)),
    )
    n_vars, n_obs = (32, 20) if SMOKE else (64, 28)
    matrix = make_module_dataset(
        n_vars, n_obs, n_modules=N_MODULES, seed=BENCH_SEED
    ).matrix
    members = [[2 * i, 2 * i + 1] for i in range(N_MODULES)]
    return matrix, members, config


def test_executor_dispatch_sweeps(capsys):
    matrix, members, config = _workload()

    t0 = time.perf_counter()
    reference = LemonTreeLearner(config).learn_from_modules(
        matrix, members, seed=BENCH_SEED
    ).network
    t_seq = time.perf_counter() - t0

    times = {}
    for schedule in ("dynamic", "static"):
        cfg = config.with_updates(
            parallel=ParallelConfig(n_workers=N_WORKERS, schedule=schedule)
        )
        t0 = time.perf_counter()
        result = LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=BENCH_SEED
        )
        times[schedule] = time.perf_counter() - t0
        assert result.network == reference, f"executor ({schedule}) diverged"

    def row(label, workers, seconds):
        return [label, workers, f"{seconds:.2f}", f"{t_seq / seconds:.2f}x"]

    rows = [
        row("in-process (1 worker)", 1, t_seq),
        row("executor (dynamic LPT)", N_WORKERS, times["dynamic"]),
        row("executor (static)", N_WORKERS, times["static"]),
    ]
    table = render_table(
        f"Task 3 schedule sweep on {N_MODULES} modules "
        f"({matrix.n_vars} x {matrix.n_obs}, bit-identical outputs)",
        ["dispatch", "workers", "time (s)", "speedup vs 1 worker"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)

    save_results(
        "BENCH_executor",
        {
            "n_modules": N_MODULES,
            "n_workers": N_WORKERS,
            "shape": list(matrix.shape),
            "smoke": SMOKE,
            "sequential_s": t_seq,
            "executor_dynamic_s": times["dynamic"],
            "executor_static_s": times["static"],
            "speedup_vs_one_worker": t_seq / min(times.values()),
            "bit_identical": True,
        },
    )
