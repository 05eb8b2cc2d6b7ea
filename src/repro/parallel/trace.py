"""Work traces and projection of parallel run-times.

The learner, when given a :class:`WorkTrace`, records one entry per
parallelizable superstep: the per-candidate work vector that Algorithms 1-5
partition across ranks, plus the collective calls the superstep performs.
:func:`project_time` then replays the trace for any processor count ``p``:

* **stepwise** phases (the Gibbs sweeps) synchronize every iteration — each
  step contributes ``max-block-work / rate + collectives``;
* **bulk** phases (candidate-split scoring, Algorithm 5) are partitioned
  once as one flat list — all their work vectors are concatenated before
  the block split, which is precisely the paper's flat partitioning of
  ``cand-splits`` and the reason its load balance beats per-module or
  per-tree assignment (Section 3.2.3);
* GaneSH runs are grouped: ``G`` runs execute concurrently on ``p / G``
  ranks each with no inter-group communication (Section 3.2.1).

The compute rate (work units per second) is calibrated per task from the
measured sequential wall time, so the projected ``T_1`` equals the measured
sequential time by construction and every projected speedup is anchored to
a real measurement.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.costmodel import (
    MachineModel,
    PHOENIX_LIKE,
    load_imbalance,
    max_block_sum,
)

#: trace phases that are partitioned once as a flat list (bulk) rather than
#: once per superstep ("split_search" is the GENOMICA extension's
#: deterministic best-split pass)
BULK_PHASES = frozenset({"modules.split_scoring", "modules.split_search"})

TASKS = ("ganesh", "consensus", "modules")


@dataclass
class TraceStep:
    phase: str
    costs: np.ndarray
    n_collectives: int = 0
    words: int = 1
    run: int | None = None  # GaneSH run id for group-parallel task 1

    @property
    def task(self) -> str:
        return self.phase.split(".", 1)[0]


@dataclass
class WorkTrace:
    """Recorded per-superstep work of one learning run."""

    steps: list[TraceStep] = field(default_factory=list)
    #: measured wall seconds per task ('ganesh' / 'consensus' / 'modules')
    times: dict[str, float] = field(default_factory=dict)
    n_ganesh_runs: int = 1
    #: measured busy wall seconds per executor worker, keyed by the
    #: worker's stable index ('worker-0', ...; 'shard1/worker-0' under
    #: shard nodes) so one label is one process across every dispatch —
    #: measured parallel speedups can be compared against projected ones
    worker_times: dict[str, float] = field(default_factory=dict)
    #: what the transport ran on, for benchmark reports: the probed
    #: machine (``MachineTopology.describe()``), worker count and kernel
    #: chunk size on one host; the node tier's shape under shard nodes
    topology: dict | None = None
    #: aggregated split-scoring kernel counters across every process that
    #: scored splits: ``hits`` / ``evaluations`` (cache behaviour),
    #: ``peak_chunk_elements`` (largest guarded temporary), ``backends``
    #: (the resolved backend names actually used) and, from native node
    #: batches that shared margin rows, ``margin_rows_filled`` /
    #: ``margin_row_uses`` (uses / filled is the sharing factor; absent on a
    #: native run means one parent's table passed the budget) and, from
    #: batches that computed their draws, ``philox_blocks``
    kernel_counters: dict = field(default_factory=dict)
    #: measured busy wall seconds per shard node ('shard0', ...), summed
    #: over the node's workers
    node_times: dict[str, float] = field(default_factory=dict)
    #: bytes shipped over each shard node's channel (both directions)
    node_transfer_bytes: dict[str, int] = field(default_factory=dict)
    #: wall seconds spent inside each shard node's channel send/recv calls
    node_transfer_seconds: dict[str, float] = field(default_factory=dict)
    #: the measured tau/mu calibration of the shard channels, as recorded
    #: by :mod:`repro.parallel.sharding` (``{"tau": s, "mu": s/word, ...}``)
    calibration: dict | None = None

    # -- recording (the learner's hook) -----------------------------------
    def record(
        self,
        phase: str,
        costs: np.ndarray,
        n_collectives: int = 2,
        words: int = 1,
        run: int | None = None,
    ) -> None:
        self.steps.append(
            TraceStep(
                phase=phase,
                costs=np.asarray(costs, dtype=np.float64),
                n_collectives=int(n_collectives),
                words=int(words),
                run=run,
            )
        )

    def mark_time(self, task: str, seconds: float) -> None:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        self.times[task] = self.times.get(task, 0.0) + float(seconds)

    def mark_worker_time(self, worker: str, seconds: float) -> None:
        """Accumulate busy wall time of one executor worker."""
        self.worker_times[worker] = self.worker_times.get(worker, 0.0) + float(
            seconds
        )

    def mark_node_time(self, node: str, seconds: float) -> None:
        """Accumulate busy wall time of one shard node."""
        self.node_times[node] = self.node_times.get(node, 0.0) + float(seconds)

    def mark_node_transfer(self, node: str, n_bytes: int, seconds: float) -> None:
        """Accumulate one shard node's channel traffic (bytes and wall
        seconds spent in send/recv), both directions combined."""
        self.node_transfer_bytes[node] = self.node_transfer_bytes.get(
            node, 0
        ) + int(n_bytes)
        self.node_transfer_seconds[node] = self.node_transfer_seconds.get(
            node, 0.0
        ) + float(seconds)

    def mark_kernel(self, counters: dict | None) -> None:
        """Merge one process's drained kernel-counter delta (see
        :func:`repro.scoring.kernel.consume_kernel_totals`); ``None`` (the
        task scored nothing) is accepted and ignored."""
        if not counters:
            return
        agg = self.kernel_counters
        agg["hits"] = agg.get("hits", 0) + int(counters.get("hits", 0))
        agg["evaluations"] = agg.get("evaluations", 0) + int(
            counters.get("evaluations", 0)
        )
        agg["peak_chunk_elements"] = max(
            agg.get("peak_chunk_elements", 0),
            int(counters.get("peak_chunk_elements", 0)),
        )
        agg["backends"] = sorted(
            set(agg.get("backends", [])) | set(counters.get("backends", []))
        )
        # Margin-row traffic and draw blocks are only present when a process
        # scored a node batch natively; merge without widening other traces.
        for key in ("margin_rows_filled", "margin_row_uses", "philox_blocks"):
            if key in counters or key in agg:
                agg[key] = agg.get(key, 0) + int(counters.get(key, 0))

    # Constants since every tier pulls from one shared list: there is no
    # home queue to take work from.  Their only caller is
    # benchmarks/e2e/probes.py (two exact-count metrics that can only read
    # 0); they leave with the benchmark-only change that drops those rows.
    def total_steals(self) -> int:
        return 0

    def total_node_steals(self) -> int:
        return 0

    def worker_imbalance(self) -> float:
        """Measured (max - mean) / mean busy time across executor workers."""
        if not self.worker_times:
            return 0.0
        busy = np.array(list(self.worker_times.values()), dtype=np.float64)
        mean = float(busy.mean())
        if mean == 0.0:
            return 0.0
        return float((busy.max() - mean) / mean)

    # -- summaries ---------------------------------------------------------
    def total_units(self, task: str | None = None) -> float:
        return float(
            sum(s.costs.sum() for s in self.steps if task is None or s.task == task)
        )

    def phase_units(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for step in self.steps:
            out[step.phase] += float(step.costs.sum())
        return dict(out)

    def rate(self, task: str) -> float:
        """Calibrated compute rate (work units per second) for ``task``."""
        units = self.total_units(task)
        seconds = self.times.get(task, 0.0)
        if seconds <= 0 or units <= 0:
            return float("inf")
        return units / seconds

    def bulk_costs(self, phase: str) -> np.ndarray:
        """Concatenated cost vector of a bulk phase (the flat split list)."""
        parts = [s.costs for s in self.steps if s.phase == phase]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def split_imbalance(self, p: int) -> float:
        """Load-imbalance metric of the split-scoring phase at ``p`` ranks."""
        return load_imbalance(self.bulk_costs("modules.split_scoring"), p)


@dataclass(frozen=True)
class ProjectedTime:
    """Simulated run-time of the traced computation on ``p`` ranks."""

    p: int
    ganesh: float
    consensus: float
    modules: float

    @property
    def total(self) -> float:
        return self.ganesh + self.consensus + self.modules

    def breakdown(self) -> dict[str, float]:
        return {
            "ganesh": self.ganesh,
            "consensus": self.consensus,
            "modules": self.modules,
        }


def _project_steps(
    steps: list[TraceStep], p: int, rate: float, model: MachineModel
) -> float:
    """Stepwise + bulk projection of one task's steps on ``p`` ranks."""
    compute = 0.0
    comm = 0.0
    bulk: dict[str, list[np.ndarray]] = defaultdict(list)
    for step in steps:
        if step.phase in BULK_PHASES:
            bulk[step.phase].append(step.costs)
            comm += model.collective_time(step.words, p, step.n_collectives)
        else:
            compute += max_block_sum(step.costs, p)
            comm += model.collective_time(step.words, p, step.n_collectives)
    for parts in bulk.values():
        compute += max_block_sum(np.concatenate(parts), p)
    if math.isinf(rate):
        return comm
    return compute / rate + comm


def project_time(
    trace: WorkTrace,
    p: int,
    model: MachineModel = PHOENIX_LIKE,
    group_parallel_ganesh: bool = True,
    compute_scale: float = 1.0,
    comm_scale: float = 1.0,
    consensus_scale: float | None = None,
) -> ProjectedTime:
    """Simulated run-time on ``p`` ranks of the traced learning run.

    GaneSH runs are executed by disjoint rank groups when
    ``group_parallel_ganesh`` (Section 3.2.1): with ``G`` runs and ``p``
    ranks, ``min(G, p)`` groups of ``p // groups`` ranks process the runs in
    ``ceil(G / groups)`` waves, each wave costing the maximum of its runs.
    Consensus clustering executes sequentially on every rank (Section
    3.2.2), so its time is independent of ``p``.

    ``compute_scale`` / ``comm_scale`` support *paper-scale extrapolation*:
    when a full-size run is infeasible sequentially (exactly the situation
    of Section 5.2.2, where the authors extrapolate with the measured
    Theta(m^2) x O(n^2) growth law), the trace of a scaled-down run is
    replayed with its compute units multiplied by the work-growth ratio and
    its collective counts by the iteration-growth ratio.  Consensus
    clustering grows as O(G n^2) — a *different* law than the dominant
    tasks — so ``consensus_scale`` scales it separately (defaults to
    ``compute_scale`` for backward compatibility of same-shape replays).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if compute_scale <= 0 or comm_scale <= 0:
        raise ValueError("scales must be positive")
    if consensus_scale is not None and consensus_scale <= 0:
        raise ValueError("scales must be positive")

    ganesh_steps = [s for s in trace.steps if s.task == "ganesh"]
    module_steps = [s for s in trace.steps if s.task == "modules"]
    ganesh_rate = trace.rate("ganesh") / compute_scale
    module_rate = trace.rate("modules") / compute_scale
    if comm_scale != 1.0:
        model = MachineModel(tau=model.tau * comm_scale, mu=model.mu * comm_scale)

    if ganesh_steps:
        by_run: dict[int, list[TraceStep]] = defaultdict(list)
        for step in ganesh_steps:
            by_run[step.run if step.run is not None else 0].append(step)
        n_runs = max(len(by_run), trace.n_ganesh_runs)
        if group_parallel_ganesh and n_runs > 1:
            groups = min(n_runs, p)
            p_group = max(1, p // groups)
            waves = math.ceil(n_runs / groups)
            run_times = [
                _project_steps(steps, p_group, ganesh_rate, model)
                for steps in by_run.values()
            ]
            ganesh_time = waves * max(run_times)
        else:
            ganesh_time = sum(
                _project_steps(steps, p, ganesh_rate, model)
                for steps in by_run.values()
            )
    else:
        ganesh_time = 0.0

    modules_time = _project_steps(module_steps, p, module_rate, model)
    if consensus_scale is None:
        consensus_scale = compute_scale
    consensus_time = trace.times.get("consensus", 0.0) * consensus_scale

    return ProjectedTime(
        p=p, ganesh=ganesh_time, consensus=consensus_time, modules=modules_time
    )


#: the flat per-label accumulators of :class:`WorkTrace`, persisted as-is
_ACCUMULATORS = (
    "times",
    "worker_times",
    "kernel_counters",
    "node_times",
    "node_transfer_bytes",
    "node_transfer_seconds",
)


def save_trace(trace: WorkTrace, path) -> None:
    """Persist a trace to an ``.npz`` file (benchmark re-run cache)."""
    import json
    from pathlib import Path

    meta = {name: getattr(trace, name) for name in _ACCUMULATORS}
    meta.update(
        n_ganesh_runs=trace.n_ganesh_runs,
        topology=trace.topology,
        calibration=trace.calibration,
        steps=[
            {
                "phase": s.phase,
                "n_collectives": s.n_collectives,
                "words": s.words,
                "run": s.run,
            }
            for s in trace.steps
        ],
    )
    arrays = {f"costs_{i}": s.costs for i, s in enumerate(trace.steps)}
    np.savez_compressed(Path(path), meta=json.dumps(meta), **arrays)


def load_trace(path) -> WorkTrace:
    """Load a trace saved by :func:`save_trace`."""
    import json

    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        trace = WorkTrace(
            n_ganesh_runs=int(meta["n_ganesh_runs"]),
            topology=meta.get("topology"),
            calibration=meta.get("calibration"),
            **{name: meta.get(name) or {} for name in _ACCUMULATORS},
        )
        for i, step in enumerate(meta["steps"]):
            trace.steps.append(
                TraceStep(
                    phase=step["phase"],
                    costs=data[f"costs_{i}"],
                    n_collectives=step["n_collectives"],
                    words=step["words"],
                    run=step["run"],
                )
            )
    return trace


def summarize_trace(trace: WorkTrace) -> str:
    """A trace's accumulators as text: where the time went and how the
    split-scoring kernel behaved (``repro trace summarize FILE``)."""
    lines = [
        f"steps: {len(trace.steps)} ({trace.total_units():.4g} work units, "
        f"{trace.n_ganesh_runs} GaneSH run(s))"
    ]
    for title, table in (
        ("task", trace.times), ("worker", trace.worker_times), ("node", trace.node_times),
    ):
        lines += [f"{title} {name}: {seconds:.3f} s" for name, seconds in sorted(table.items())]
    if trace.worker_times:
        lines.append(f"worker imbalance: {trace.worker_imbalance():.3f}")
    for node, n_bytes in sorted(trace.node_transfer_bytes.items()):
        lines.append(
            f"channel {node}: {n_bytes} bytes in "
            f"{trace.node_transfer_seconds.get(node, 0.0):.4f} s"
        )
    kernel = trace.kernel_counters
    if kernel:
        hits, evaluations = kernel.get("hits", 0), kernel.get("evaluations", 0)
        lines.append(
            f"kernel ({', '.join(kernel.get('backends', [])) or '-'}): "
            f"{evaluations} evaluations, {hits} hits "
            f"(hit ratio {hits / max(1, hits + evaluations):.3f}), "
            f"peak chunk {kernel.get('peak_chunk_elements', 0)} elements"
        )
        if "margin_row_uses" in kernel:
            filled, uses = kernel["margin_rows_filled"], kernel["margin_row_uses"]
            lines.append(
                f"margin rows: {filled} filled for {uses} uses "
                f"(shared {uses / max(1, filled):.2f}x)"
            )
        if "philox_blocks" in kernel:
            lines.append(f"philox blocks computed: {kernel['philox_blocks']}")
    return "\n".join(lines)


def scaling_curve(
    trace: WorkTrace,
    processor_counts: list[int],
    model: MachineModel = PHOENIX_LIKE,
) -> list[ProjectedTime]:
    """Projected run-times over a sweep of processor counts."""
    return [project_time(trace, p, model) for p in processor_counts]
