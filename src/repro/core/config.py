"""Execution parameters for module-network learning."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.scoring.kernel import KERNEL_BACKENDS
from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior
from repro.scoring.split_score import DEFAULT_BETA_GRID


@dataclass(frozen=True)
class ParallelConfig:
    """The execution-backend knobs shared by every learner.

    One composable value embedded in :class:`LearnerConfig` and
    :class:`repro.genomica.learner.GenomicaConfig` as ``config.parallel``;
    :func:`repro.parallel.executor.open_executor` is the one reader that
    turns it into an executor, and the executors take every knob from here
    (no constructor overrides).  Nothing in it can change a learned
    network.  Whether Task 3 is decomposed into whole modules or
    fine-grained split tasks is not a knob: the executor decides from the
    module costs (``choose_mode``).
    """

    #: worker processes (0 = every core the process affinity mask allows).
    #: 1 runs every task in-process — the sequential learner; >1 runs on
    #: one persistent pool with a single shared-memory matrix transfer per
    #: ``learn`` call (:class:`repro.parallel.executor.TaskPoolExecutor`)
    n_workers: int = 1
    #: dispatch: "static" contiguous blocks or "dynamic" queue pulling
    #: (largest-module-first for whole modules) — the paper's
    #: Section 3.2.3 / Section 6 static-vs-dynamic ablation
    schedule: str = "dynamic"
    #: scoring backend of split scoring and of the GaneSH sweeps: "numpy"
    #: (the oracle), "native" (the certified compiled extension; raises
    #: when it is unavailable) or "auto" (use native when it builds, loads
    #: and passes bit-identity certification, else fall back to NumPy).
    #: Resolved per job by whoever holds the config, never process-wide.
    #: Backends are bit-identical by construction, so this is purely a
    #: speed knob.
    kernel_backend: str = "auto"
    #: shard nodes (1 = single-host, the pool executor alone); >1 routes
    #: Task 1 chains and Task 3 modules through the
    #: :class:`repro.parallel.sharding.ShardedExecutor` process-node tier,
    #: each node running its own ``n_workers``-worker pool.  Pure
    #: placement: results are bit-identical for any node count.
    n_nodes: int = 1
    #: shard nodes are always OS processes over localhost TCP frames; the
    #: one accepted value is kept only for callers that still pass it
    #: (``benchmarks/e2e/workload.py``) and nothing reads it
    node_backend: str = "socket"

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise ValueError("n_workers must be non-negative (0 = all cores)")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if self.node_backend != "socket":
            raise ValueError(
                "node_backend must be 'socket': the in-process 'thread' "
                "node backend was removed, shard nodes are always processes"
            )
        if self.schedule not in ("static", "dynamic"):
            raise ValueError("schedule must be 'static' or 'dynamic'")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(f"kernel_backend must be one of {KERNEL_BACKENDS}")

    def resolve_n_workers(self) -> int:
        """The effective worker count (0 means every available core).

        "Every available core" honours the process affinity mask —
        containerized CI typically grants fewer cores than
        ``os.cpu_count()`` reports for the host, and oversubscribing the
        mask just makes workers time-slice each other.
        """
        if self.n_workers != 0:
            return self.n_workers
        import os

        getaffinity = getattr(os, "sched_getaffinity", None)
        if getaffinity is not None:
            try:
                return max(1, len(getaffinity(0)))
            except OSError:  # pragma: no cover - exotic kernels
                pass
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class LearnerConfig:
    """All knobs of the three Lemon-Tree tasks.

    The defaults correspond to the paper's minimum-run-time experimental
    configuration (Section 5.1): a single GaneSH run with one update step,
    one regression tree per module, and every variable as a candidate
    parent for every module.
    """

    # -- task 1: GaneSH co-clustering (Section 2.2.1) --------------------
    #: number of independent GaneSH runs (the paper's G)
    n_ganesh_runs: int = 1
    #: update steps per run (the paper's U)
    n_update_steps: int = 1
    #: initial variable clusters K0: an int, a float in (0, 1) interpreted
    #: as a fraction of n, or ``None`` -> n // 2 (Lemon-Tree's default when
    #: the user provides no cluster count)
    init_var_clusters: int | float | None = None

    # -- task 2: consensus clustering (Section 2.2.2) --------------------
    #: co-occurrence weights below this threshold are zeroed
    consensus_threshold: float = 0.25
    #: optional cap on the number of consensus modules
    max_modules: int | None = None

    # -- task 3: learning the modules (Section 2.2.3) --------------------
    #: update steps of the per-module observation-only GaneSH run
    tree_update_steps: int = 1
    #: burn-in steps before observation clusterings are sampled (paper's B)
    tree_burn_in: int = 0
    #: candidate parent variable indices (``None`` -> all variables)
    candidate_parents: tuple[int, ...] | None = None
    #: splits selected per node per sampling mode (the paper's J)
    n_splits_per_node: int = 2
    #: maximum discrete sampling steps per candidate split (the paper's S)
    max_sampling_steps: int = 10
    #: consecutive rejections after which a split's chain stops early
    sampling_stop_repeats: int = 3
    #: the discrete grid of sigmoid steepness values explored per split
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID

    # -- execution backend (persistent task-pool executor) ----------------
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    # -- shared -----------------------------------------------------------
    prior: NormalGammaPrior = field(default_factory=lambda: DEFAULT_PRIOR)
    #: RNG backend: "philox" (default) or "mrg"
    rng_backend: str = "philox"

    def __post_init__(self) -> None:
        if self.n_ganesh_runs < 1:
            raise ValueError("n_ganesh_runs must be at least 1")
        if self.n_update_steps < 1:
            raise ValueError("n_update_steps must be at least 1")
        if self.tree_update_steps < 1:
            raise ValueError("tree_update_steps must be at least 1")
        if not 0 <= self.tree_burn_in:
            raise ValueError("tree_burn_in must be non-negative")
        if self.n_splits_per_node < 1:
            raise ValueError("n_splits_per_node must be at least 1")
        if self.max_sampling_steps < 1:
            raise ValueError("max_sampling_steps must be at least 1")
        if not 0.0 <= self.consensus_threshold <= 1.0:
            raise ValueError("consensus_threshold must lie in [0, 1]")
        if self.rng_backend not in ("philox", "mrg"):
            raise ValueError("rng_backend must be 'philox' or 'mrg'")
        if not isinstance(self.parallel, ParallelConfig):
            raise ValueError("parallel must be a ParallelConfig")

    def resolve_init_clusters(self, n_vars: int) -> int:
        """The initial variable-cluster count K0 for ``n_vars`` variables."""
        value = self.init_var_clusters
        if value is None:
            k0 = max(1, n_vars // 2)
        elif isinstance(value, float) and 0.0 < value < 1.0:
            k0 = max(1, int(n_vars * value))
        elif isinstance(value, (int, float)) and value >= 1:
            k0 = int(value)
        else:
            raise ValueError(f"invalid init_var_clusters: {value!r}")
        return min(k0, n_vars)

    def resolve_n_workers(self) -> int:
        """The effective worker count (0 means every available core)."""
        return self.parallel.resolve_n_workers()

    def resolve_candidate_parents(self, n_vars: int) -> tuple[int, ...]:
        """The candidate-parent list, defaulting to every variable."""
        if self.candidate_parents is None:
            return tuple(range(n_vars))
        if not self.candidate_parents:
            raise ValueError("candidate_parents must name at least one variable")
        for parent in self.candidate_parents:
            if not 0 <= parent < n_vars:
                raise ValueError(f"candidate parent {parent} out of range")
        return tuple(self.candidate_parents)

    def with_updates(self, **changes) -> "LearnerConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


def parents_from_names(names: Sequence[str], var_names: Sequence[str]) -> tuple[int, ...]:
    """Resolve candidate-parent names to variable indices."""
    index = {name: i for i, name in enumerate(var_names)}
    missing = [name for name in names if name not in index]
    if missing:
        raise KeyError(f"unknown candidate parents: {missing[:5]}")
    return tuple(index[name] for name in names)
