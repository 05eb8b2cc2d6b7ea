"""The executor's dispatch sweeps on Task 3: schedule, topology, stealing.

Drives the whole of Task 3 through ``learn_from_modules`` — i.e. through
``open_executor``, the one dispatch seam — on a synthetic workload of many
small modules, once in-process (one worker: the sequential reference) and
then on the 4-worker pool under every dispatch knob that remains:

* the **schedule** sweep (``static`` blocks vs ``dynamic`` LPT pulling —
  the paper's Section 3.2.3 / Section 6 ablation);
* the **flat-vs-probed machine topology** sweep;
* the **domain-affine steal sweep** on two simulated NUMA domains
  (``ParallelConfig.steal`` on vs off), whose steal counts and per-domain
  locality hit rates land in the record.

Every configuration's network is asserted bit-identical to the one-worker
reference, unconditionally: the CI bench-smoke and steal-smoke jobs run
this file on every PR (``REPRO_BENCH_SMOKE=1`` only shrinks the workload),
so a dispatch path that changed any output fails CI even on a flat runner.

A fake-clock scheduling check rides along: on the skewed workload model,
the domain-affine steal schedule's makespan must be no worse than the
pre-change shared-queue dynamic dispatch under the same remote-penalty
accounting.

The workload is deliberately module-rich and per-module-light: that is the
regime where dispatch overhead is visible, and it is also the common real
regime (the paper's consensus clustering yields tens to hundreds of
modules).  The record is persisted as
``benchmarks/results/BENCH_executor.json``.
"""

from __future__ import annotations

import heapq
import os
import time

import numpy as np

from conftest import BENCH_SEED
from repro.bench import render_table, save_results
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import make_module_dataset
from repro.parallel.scheduler import placement_steal_schedule
from repro.parallel.topology import (
    MachineTopology,
    available_cpus,
    plan_placement,
)
from repro.parallel.trace import WorkTrace

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


def _two_domain_topology():
    """Two simulated NUMA domains over the schedulable CPUs.

    Splitting the affinity mask in half gives the steal dispatch real
    foreign queues to drain on any runner — single-core machines simulate
    both domains on the one CPU.
    """
    cpus = available_cpus()
    half = max(1, len(cpus) // 2)
    low, high = cpus[:half], cpus[half:] or cpus[:1]
    return MachineTopology(
        numa_domains=(tuple(low), tuple(high)),
        l2_bytes=2 << 20,
        l3_bytes=16 << 20,
        source="sysfs",
    )


def _skewed_group_costs(seed: int = 0, n_groups: int = 40):
    """The scheduler-ablation skewed workload: heavy-tailed group sizes."""
    rng = np.random.default_rng(seed)
    sizes = (rng.pareto(1.2, size=n_groups) * 20 + 5).astype(np.int64)
    costs = rng.gamma(2.0, 3.0, size=int(sizes.sum()))
    return costs, sizes


def _shared_dynamic_makespan(costs, sizes, placement, remote_penalty=1.3):
    """Fake-clock model of the pre-change shared dynamic queue.

    A single LPT-ordered queue all ranks pull from, charged the same
    remote penalty the steal model pays whenever the executing rank's
    domain is not the group's home — the apples-to-apples baseline for
    :func:`placement_steal_schedule`.
    """
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    group_costs = np.array(
        [costs[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]
    )
    blocks = placement.domain_blocks(int(costs.size))

    def home(group):
        mid = (bounds[group] + bounds[group + 1]) // 2
        for domain, (lo, hi) in enumerate(blocks):
            if lo <= mid < hi:
                return domain
        return 0

    queue = [
        (float(group_costs[g]), home(int(g)))
        for g in np.argsort(-group_costs, kind="stable")
    ]
    p = placement.n_workers
    rank_domains = [placement.domain_of(rank) for rank in range(p)]
    per_rank = np.zeros(p)
    clock = [(0.0, rank) for rank in range(p)]
    heapq.heapify(clock)
    for cost, home_domain in queue:
        finish, rank = heapq.heappop(clock)
        penalty = 1.0 if rank_domains[rank] == home_domain else remote_penalty
        per_rank[rank] = finish + cost * penalty
        heapq.heappush(clock, (per_rank[rank], rank))
    return float(per_rank.max())


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

    # Topology placement sweep: the flat model (no pinning, fixed kernel
    # chunk — the pre-topology behaviour) vs the probed machine topology
    # (workers pinned per NUMA domain, first-touch pages, cache-sized
    # kernel chunks).  Placement only moves work, so both networks must be
    # bit-identical to the sequential reference — this assertion runs on
    # every PR via the CI bench-smoke job.
    topo_times: dict[str, float] = {}
    topo_traces: dict[str, WorkTrace] = {}
    for topology in ("flat", "auto"):
        cfg = config.with_updates(
            parallel=ParallelConfig(n_workers=N_WORKERS, topology=topology)
        )
        trace = WorkTrace()
        t0 = time.perf_counter()
        result = LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=BENCH_SEED, trace=trace
        )
        topo_times[topology] = time.perf_counter() - t0
        topo_traces[topology] = trace
        assert result.network == reference, f"topology {topology} diverged"

    # Steal sweep: two simulated NUMA domains, dynamic dispatch with the
    # domain-affine queues on vs off.  Stealing only moves work between
    # workers — bit-identity with the sequential reference is asserted
    # unconditionally, and the steal counters / per-domain locality hit
    # rates from the trace land in the record.
    steal_times: dict[str, float] = {}
    steal_traces: dict[str, WorkTrace] = {}
    steal_topology = _two_domain_topology()
    for label, steal in (("steal", True), ("no-steal", False)):
        cfg = config.with_updates(
            parallel=ParallelConfig(
                n_workers=N_WORKERS, schedule="dynamic",
                topology=steal_topology, steal=steal,
            )
        )
        trace = WorkTrace()
        t0 = time.perf_counter()
        result = LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=BENCH_SEED, trace=trace
        )
        steal_times[label] = time.perf_counter() - t0
        steal_traces[label] = trace
        assert result.network == reference, f"steal sweep ({label}) diverged"
    n_steals = steal_traces["steal"].total_steals()
    locality = steal_traces["steal"].locality_hit_rate()
    assert steal_traces["no-steal"].total_steals() == 0

    # Fake-clock scheduling check on the skewed workload: the domain-affine
    # steal schedule must be no worse than the pre-change shared dynamic
    # queue under the same remote-penalty accounting.
    placement = plan_placement(
        MachineTopology(
            numa_domains=(tuple(range(4)), tuple(range(4, 8))), source="sysfs"
        ),
        N_WORKERS,
    )
    model_steal = model_shared = 0.0
    for seed in range(5):
        costs, sizes = _skewed_group_costs(seed)
        steal_makespan = placement_steal_schedule(costs, sizes, placement).makespan
        shared_makespan = _shared_dynamic_makespan(costs, sizes, placement)
        assert steal_makespan <= shared_makespan + 1e-9, (
            f"steal schedule lost to the shared queue on seed {seed}: "
            f"{steal_makespan:.3f} > {shared_makespan:.3f}"
        )
        model_steal += steal_makespan
        model_shared += shared_makespan

    def row(label, workers, seconds):
        return [label, workers, f"{seconds:.2f}", f"{t_seq / seconds:.2f}x"]

    rows = [
        row("in-process (1 worker)", 1, t_seq),
        row("executor (dynamic LPT)", N_WORKERS, times["dynamic"]),
        row("executor (static)", N_WORKERS, times["static"]),
        row("executor (topology flat)", N_WORKERS, topo_times["flat"]),
        row("executor (topology auto)", N_WORKERS, topo_times["auto"]),
        row(
            f"executor (2-domain steal, {n_steals} steals, "
            f"locality {locality:.2f})",
            N_WORKERS,
            steal_times["steal"],
        ),
        row("executor (2-domain shared queue)", N_WORKERS,
            steal_times["no-steal"]),
    ]
    table = render_table(
        f"Task 3 dispatch sweeps on {N_MODULES} modules "
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
            "topology_flat_s": topo_times["flat"],
            "topology_auto_s": topo_times["auto"],
            "topology": topo_traces["auto"].topology,
            "domain_times": {
                name: trace.domain_times for name, trace in topo_traces.items()
            },
            "steal_s": steal_times["steal"],
            "no_steal_s": steal_times["no-steal"],
            "steals": n_steals,
            "stolen_seconds": sum(
                steal_traces["steal"].worker_stolen_seconds.values()
            ),
            "locality_hit_rate": locality,
            "domain_locality": steal_traces["steal"].domain_locality(),
            "model_steal_makespan": model_steal,
            "model_shared_queue_makespan": model_shared,
            "speedup_vs_one_worker": t_seq / min(times.values()),
            "bit_identical": True,
        },
    )
