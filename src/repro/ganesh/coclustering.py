"""Sweep drivers for the GaneSH Gibbs sampler (Algorithm 3).

The drivers consume randomness from a :class:`repro.rng.streams.GibbsRandom`
in a fixed call order — one ``randint`` plus one ``weighted_choice_logs`` per
Gibbs iteration — which is the contract that keeps the optimized, reference
and parallel implementations on identical trajectories (Section 4.2 of the
paper: same PRNG, same stream positions, on every implementation and rank).

Every Gibbs iteration optionally reports its per-candidate cost vector to a
trace recorder (see :mod:`repro.parallel.trace`); the parallel engine uses
those vectors to account per-rank work for Algorithms 1-3.  The vectors are
built only when a recorder is attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ganesh.state import (
    CoClusterState,
    ObsClustering,
    _compact,
    init_sqrt_obs_labels,
)
from repro.rng.streams import GibbsRandom, make_stream
from repro.scoring.kernel import resolve_kernel_backend
from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior, gammaln_table


@dataclass
class GaneshResult:
    """Output of one GaneSH run."""

    state: CoClusterState
    #: variable-cluster labels sampled at the end of the run
    var_labels: np.ndarray
    #: Gibbs iterations performed (for reporting)
    n_iterations: int = 0


@dataclass
class SweepHooks:
    """Optional instrumentation callbacks.

    ``record(phase, costs, n_collectives)`` is invoked once per Gibbs
    iteration with the per-candidate work vector (arbitrary units) of the
    score computations that Algorithms 1 and 2 partition across ranks, and
    the number of collective calls the iteration performs.
    """

    record: object = None

    def emit(self, phase: str, costs: np.ndarray, n_collectives: int = 2) -> None:
        if self.record is not None:
            self.record(phase, costs, n_collectives)


_NO_HOOKS = SweepHooks()


def reassign_var_sweep(
    state: CoClusterState, rng: GibbsRandom, hooks: SweepHooks = _NO_HOOKS, native=None
) -> None:
    """n iterations of random variable reassignment (Algorithm 1, lines 3-11).

    With ``native`` (the certified :class:`repro._native.NativeKernels`) the
    whole sweep is one call (:meth:`CoClusterState.native_var_sweep`); the
    loop below is the NumPy path (``native=None``) and the oracle that call
    is certified against.
    """
    n = state.n_vars
    m = state.n_obs
    if native is not None:
        for ks in state.native_var_sweep(native, rng, trace=hooks.record is not None):
            costs = [m + k for k in ks] + [m]
            hooks.emit("ganesh.var_reassign", np.array(costs, dtype=np.float64))
        return
    for _ in range(n):
        var = rng.randint(n)
        scores = state.move_var_scores(var)
        if hooks.record is not None:
            costs = [m + c.obs.n_clusters for c in state.clusters] + [m]
            hooks.emit("ganesh.var_reassign", np.array(costs, dtype=np.float64))
        choice = rng.weighted_choice_logs(scores)
        state.move_var(var, choice)


def merge_var_sweep(
    state: CoClusterState, rng: GibbsRandom, hooks: SweepHooks = _NO_HOOKS, native=None
) -> None:
    """One pass of variable-cluster merging (Algorithm 1, lines 12-20).

    Clusters are considered one at a time; a "keep" decision advances to the
    next cluster, a merge removes the current cluster and stays at the same
    index (the next unexamined cluster shifts into it).  Dispatches like
    :func:`reassign_var_sweep`.
    """
    m = state.n_obs
    if native is not None:
        traced = hooks.record is not None
        for ks in state.native_var_sweep(native, rng, merge=True, trace=traced):
            costs = [m + k for k in ks]
            hooks.emit("ganesh.var_merge", np.array(costs, dtype=np.float64))
        return
    cid = 0
    while cid < state.n_clusters:
        scores = state.merge_var_scores(cid)
        if hooks.record is not None:
            costs = [m + c.obs.n_clusters for c in state.clusters]
            hooks.emit("ganesh.var_merge", np.array(costs, dtype=np.float64))
        choice = rng.weighted_choice_logs(scores)
        if choice == cid:
            cid += 1
        else:
            state.merge_var(cid, choice)


def reassign_obs_sweep(
    oc: ObsClustering,
    block: np.ndarray,
    rng: GibbsRandom,
    hooks: SweepHooks = _NO_HOOKS,
    phase: str = "ganesh.obs_reassign",
    native=None,
    lgam: np.ndarray | None = None,
) -> None:
    """m iterations of random observation reassignment (Algorithm 2, lines 3-11).

    With ``native`` the whole sweep is one certified call
    (:meth:`ObsClustering.native_sweep`) reading the caller's ``lgam``; the
    loop below is the NumPy path (``native=None``) and its oracle.
    """
    n_members, m = block.shape
    if native is not None:
        for k in oc.native_sweep(native, rng, lgam, block, trace=hooks.record is not None):
            hooks.emit(phase, np.full(k + 1, float(n_members + 1)))
        return
    for _ in range(m):
        obs = rng.randint(m)
        column = block[:, obs]
        scores = oc.move_obs_scores(obs, column)
        if hooks.record is not None:
            hooks.emit(phase, np.full(oc.n_clusters + 1, float(n_members + 1)))
        choice = rng.weighted_choice_logs(scores)
        oc.move_obs(obs, choice, column)


def merge_obs_sweep(
    oc: ObsClustering,
    rng: GibbsRandom,
    hooks: SweepHooks = _NO_HOOKS,
    phase: str = "ganesh.obs_merge",
    native=None,
    lgam: np.ndarray | None = None,
) -> None:
    """One pass of observation-cluster merging (Algorithm 2, lines 12-20).

    Dispatches like :func:`reassign_obs_sweep`.
    """
    if native is not None:
        for k in oc.native_sweep(native, rng, lgam, trace=hooks.record is not None):
            hooks.emit(phase, np.ones(k, dtype=np.float64))
        return
    cid = 0
    while cid < oc.n_clusters:
        scores = oc.merge_obs_scores(cid)
        if hooks.record is not None:
            hooks.emit(phase, np.ones(oc.n_clusters, dtype=np.float64))
        choice = rng.weighted_choice_logs(scores)
        if choice == cid:
            cid += 1
        else:
            oc.merge_obs(cid, choice)


def run_ganesh(
    data: np.ndarray,
    rng: GibbsRandom,
    n_update_steps: int = 1,
    init_var_clusters: int | None = None,
    prior: NormalGammaPrior = DEFAULT_PRIOR,
    hooks: SweepHooks = _NO_HOOKS,
    kernel_backend: str = "auto",
) -> GaneshResult:
    """One full GaneSH co-clustering run (Algorithm 3).

    Variables start in ``init_var_clusters`` random clusters (``n // 2`` if
    not given, as in Lemon-Tree); observations of each variable cluster
    start in ``sqrt(m)`` random clusters.  Each update step runs a variable
    reassignment sweep, a variable merge sweep, then observation
    reassignment and merge sweeps for every variable cluster, each on the
    resolved ``kernel_backend`` (a job's ``ParallelConfig.kernel_backend``).
    """
    native = resolve_kernel_backend(kernel_backend)[1]
    data = np.asarray(data, dtype=np.float64)
    n, m = data.shape
    k0 = init_var_clusters if init_var_clusters is not None else max(1, n // 2)
    k0 = min(max(1, int(k0)), n)

    # Compaction may renumber; build per-cluster observation labels in the
    # compacted order so the RNG call order is well defined.
    var_labels = _compact(rng.random_labels(n, k0))
    n_clusters = int(var_labels.max()) + 1
    obs_labels = [init_sqrt_obs_labels(m, rng) for _ in range(n_clusters)]
    state = CoClusterState(data, var_labels, obs_labels, prior)

    iterations = 0
    for _ in range(n_update_steps):
        reassign_var_sweep(state, rng, hooks, native)
        merge_var_sweep(state, rng, hooks, native)
        for cluster in list(state.clusters):
            if not cluster.members:  # merged away earlier in this loop
                continue
            block = data[cluster.members]
            lgam = None if native is None else state.obs_lgam(len(cluster.members))
            reassign_obs_sweep(cluster.obs, block, rng, hooks, native=native, lgam=lgam)
            merge_obs_sweep(cluster.obs, rng, hooks, native=native, lgam=lgam)
        iterations += 1

    return GaneshResult(
        state=state, var_labels=state.var_labels.copy(), n_iterations=iterations
    )


def run_replicated_ganesh(
    data: np.ndarray,
    seed: int,
    run_index: int,
    n_update_steps: int = 1,
    init_var_clusters: int | None = None,
    prior: NormalGammaPrior = DEFAULT_PRIOR,
    rng_backend: str = "philox",
    hooks: SweepHooks = _NO_HOOKS,
    kernel_backend: str = "auto",
) -> np.ndarray:
    """GaneSH run ``run_index`` of a G-run ensemble, on its own stream.

    Task 1 runs G independent chains whose only coupling is the data
    matrix; each draws exclusively from the named ``("ganesh", g)`` stream,
    so the sampled labels are a pure function of ``(seed, run_index)`` —
    identical whether the runs execute sequentially, on a process pool in
    any completion order, or as separate cluster jobs (Section 3.2.1's
    communication-free group parallelism).
    """
    rng = GibbsRandom(make_stream(seed, "ganesh", run_index, backend=rng_backend))
    result = run_ganesh(
        data,
        rng,
        n_update_steps=n_update_steps,
        init_var_clusters=init_var_clusters,
        prior=prior,
        hooks=hooks,
        kernel_backend=kernel_backend,
    )
    return result.var_labels


def run_obs_only_ganesh(
    block: np.ndarray,
    rng: GibbsRandom,
    n_update_steps: int = 1,
    burn_in: int = 0,
    prior: NormalGammaPrior = DEFAULT_PRIOR,
    hooks: SweepHooks = _NO_HOOKS,
    kernel_backend: str = "auto",
) -> list[np.ndarray]:
    """GaneSH constrained to a single variable cluster (Algorithm 4, lines 3-9).

    Used by the module-learning task to sample observation clusterings for
    one module: only the observation sweeps run, and after ``burn_in``
    update steps each subsequent clustering is sampled into the output
    ensemble.  With ``n_update_steps == 1`` and ``burn_in == 0`` exactly one
    clustering is sampled — the paper's minimum-run-time configuration.
    The sweeps run on the resolved ``kernel_backend``, as in :func:`run_ganesh`.
    """
    native = resolve_kernel_backend(kernel_backend)[1]
    block = np.atleast_2d(np.asarray(block, dtype=np.float64))
    rows, m = block.shape
    labels = init_sqrt_obs_labels(m, rng)
    oc = ObsClustering.from_block(block, labels, prior)
    lgam = None if native is None else gammaln_table(m, prior, rows)

    samples: list[np.ndarray] = []
    for step in range(1, n_update_steps + 1):
        reassign_obs_sweep(oc, block, rng, hooks, "modules.obs_reassign", native, lgam)
        merge_obs_sweep(oc, rng, hooks, "modules.obs_merge", native, lgam)
        if step > burn_in or step == n_update_steps and not samples:
            samples.append(oc.labels.copy())
    return samples
