"""Multi-node shard tier on the Figure 5 workload: 1 vs 2 nodes.

The paper's cluster runs distribute the same task decomposition across
machines; the shard tier reproduces that with real OS node processes on
localhost (the socket transport) over the same LPT plan.  This benchmark
learns the yeast-shaped Figure 5 workload end to end (Task 1 chains +
Task 3 modules) at 1 and 2 shard nodes, asserts every configuration's
network bit-identical to the sequential learner, and records the tier's
measured behaviour — the calibrated tau/mu wire model and per-node
transfer traffic — in ``benchmarks/results/BENCH_shard.json``.

The >= 1.5x speedup gate at 2 nodes only applies when the machine has
enough cores for two node processes to actually run concurrently (and is
dropped in smoke mode); the bit-identity assertions are unconditional —
the CI shard-smoke job runs this file with ``REPRO_BENCH_SMOKE=1`` on
every PR, so a transport that changed any output would fail CI even on a
flat runner.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SEED
from repro.bench import render_table, save_results
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import yeast_like
from repro.parallel.trace import WorkTrace
from repro.validation.metrics import network_fingerprint

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
G_RUNS = 4 if SMOKE else 8
NODE_COUNTS = (1, 2)


def _workload():
    matrix = yeast_like(scale=1 / 96 if SMOKE else 1 / 48).matrix
    config = LearnerConfig(
        n_ganesh_runs=G_RUNS,
        n_update_steps=2,
        init_var_clusters=1 / 8,
    )
    return matrix, config


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sharded_config(base: LearnerConfig, n_nodes: int):
    return base.with_updates(parallel=ParallelConfig(n_workers=1, n_nodes=n_nodes))


def test_shard_scaling(capsys):
    matrix, config = _workload()

    times: dict[int, float] = {}
    fingerprints: dict[int, str] = {}
    traces: dict[int, WorkTrace] = {}
    for n_nodes in NODE_COUNTS:
        trace = WorkTrace()
        learner = LemonTreeLearner(_sharded_config(config, n_nodes))
        t0 = time.perf_counter()
        result = learner.learn(matrix, seed=BENCH_SEED, trace=trace)
        times[n_nodes] = time.perf_counter() - t0
        fingerprints[n_nodes] = network_fingerprint(result.network)
        traces[n_nodes] = trace

    # n_nodes=1 takes the plain sequential path, so it *is* the reference
    # every shard count must reproduce bit for bit.
    reference = fingerprints[1]
    for n_nodes in NODE_COUNTS[1:]:
        assert fingerprints[n_nodes] == reference, (
            f"network diverged at {n_nodes} socket nodes"
        )

    shard_trace = traces[2]
    calibration = shard_trace.calibration or {}
    transfer_bytes = sum(shard_trace.node_transfer_bytes.values())
    transfer_seconds = sum(shard_trace.node_transfer_seconds.values())
    speedup_2 = times[1] / times[2]

    rows = [
        [n, f"{times[n]:.2f}", f"{times[1] / times[n]:.2f}x"]
        for n in NODE_COUNTS
    ]
    table = render_table(
        f"Shard tier: {G_RUNS} GaneSH runs + modules on "
        f"{matrix.n_vars} x {matrix.n_obs} (bit-identical networks)",
        ["nodes", "time (s)", "speedup"],
        rows,
    )
    tau = calibration.get("tau")
    mu = calibration.get("mu")
    with capsys.disabled():
        print("\n" + table)
        print(
            f"calibrated wire model: tau={tau:.3g}s, mu={mu:.3g}s/word, "
            f"{transfer_bytes} bytes shipped in {transfer_seconds:.3f}s"
            if tau is not None
            else "calibration missing from trace"
        )

    cores = _available_cores()
    save_results(
        "BENCH_shard",
        {
            "g_runs": G_RUNS,
            "shape": list(matrix.shape),
            "cores_available": cores,
            "smoke": SMOKE,
            "workers_per_node": 1,
            "times_s": {str(n): times[n] for n in NODE_COUNTS},
            "speedup_2": speedup_2,
            "calibration": calibration,
            "transfer_bytes": transfer_bytes,
            "transfer_seconds": transfer_seconds,
            "bit_identical": True,
        },
    )
    assert calibration, "shard runs must record the calibrated tau/mu model"
    assert calibration["tau"] >= 0.0 and calibration["mu"] >= 0.0
    assert transfer_bytes > 0
    if cores >= 4 and not SMOKE:
        assert speedup_2 >= 1.5, (
            f"the shard tier must reach >= 1.5x at 2 nodes on {cores} "
            f"cores, got {speedup_2:.2f}x"
        )
