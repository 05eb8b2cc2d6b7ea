"""Iterative two-step module-network learning (the GENOMICA approach).

Algorithm (Segal et al., simplified to the shared substrates of this
repository):

1. **Initialize** the module assignment randomly into ``n_modules``
   clusters (replicated-stream randomness, so runs are reproducible and
   seed-comparable with the Lemon-Tree learners).
2. **M-step** — for every module, learn a regression-tree CPD: cluster the
   module's observations (constrained GaneSH), agglomerate the clusters
   into a binary tree, and assign each internal node the *single
   best-scoring* split over all candidate parents and values (deterministic
   maximization over the beta grid — GENOMICA searches for the best split,
   where Lemon-Tree samples from the split posterior).
3. **E-step** — reassign every variable to the module whose leaf blocks
   explain its row best: the held-out predictive score
   ``sum_leaves [logml(leaf + row|leaf) - logml(leaf)]`` with the
   variable's own contribution removed from its current module.
4. Repeat until the assignment reaches a fixed point or ``max_iterations``.

The total decomposable score is non-decreasing under the E-step given
fixed leaf partitions, which gives the convergence behaviour Segal et al.
describe; tree re-learning in the next M-step may re-shuffle scores, so a
fixed-point/iteration cap terminates the loop, as in GENOMICA.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LearnerConfig, ParallelConfig
from repro.datatypes import ExpressionMatrix, Module, ModuleNetwork, Split
from repro.ganesh.coclustering import SweepHooks, run_obs_only_ganesh
from repro.rng.streams import GibbsRandom, make_stream
from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior, log_marginal
from repro.scoring.split_score import DEFAULT_BETA_GRID, SplitScorer, check_beta_grid
from repro.trees.hierarchy import build_tree_structure
from repro.trees.parents import accumulate_parent_scores
from repro.trees.splits import node_kernel


@dataclass(frozen=True)
class GenomicaConfig:
    """Parameters of the two-step learner."""

    #: number of modules K (fixed, unlike Lemon-Tree's consensus count)
    n_modules: int = 10
    #: maximum assign/learn iterations
    max_iterations: int = 10
    #: update steps of the per-module observation clustering
    tree_update_steps: int = 1
    #: candidate parents (``None`` -> all variables)
    candidate_parents: tuple[int, ...] | None = None
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    prior: NormalGammaPrior = field(default_factory=lambda: DEFAULT_PRIOR)
    rng_backend: str = "philox"
    #: execution backend (``parallel.n_workers == 1`` is in-process; >1
    #: runs the M-step chains and the final network build concurrently on
    #: the persistent :class:`repro.parallel.executor.TaskPoolExecutor` —
    #: bit-identical output because each task consumes only its own named
    #: stream)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    def __post_init__(self) -> None:
        if self.n_modules < 1:
            raise ValueError("n_modules must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tree_update_steps < 1:
            raise ValueError("tree_update_steps must be at least 1")
        check_beta_grid(self.beta_grid)
        if not isinstance(self.parallel, ParallelConfig):
            raise ValueError("parallel must be a ParallelConfig")
        if self.parallel.n_nodes != 1:
            raise ValueError("GENOMICA runs on one host: parallel.n_nodes must be 1")


@dataclass
class GenomicaResult:
    network: ModuleNetwork
    n_iterations: int
    converged: bool
    score_history: list[float]
    elapsed_seconds: float


class GenomicaLearner:
    """The iterative two-step (GENOMICA-style) learner."""

    def __init__(self, config: GenomicaConfig | None = None) -> None:
        self.config = config or GenomicaConfig()

    def learn(self, matrix: ExpressionMatrix, seed: int, trace=None) -> GenomicaResult:
        """Learn a module network; ``trace`` optionally records the
        parallelizable work (same WorkTrace protocol as the Lemon-Tree
        learner) for strong-scaling projection of the parallel GENOMICA
        extension."""
        config = self.config
        hooks = (
            SweepHooks(record=lambda ph, costs, nc=2: trace.record(ph, costs, nc))
            if trace is not None
            else SweepHooks()
        )
        data = matrix.values
        n, m = data.shape
        k = min(config.n_modules, n)
        rng = GibbsRandom(make_stream(seed, "genomica", backend=config.rng_backend))
        scorer = SplitScorer(
            beta_grid=config.beta_grid, max_steps=1,
            kernel_backend=config.parallel.kernel_backend,
        )
        parents = np.asarray(
            LearnerConfig(candidate_parents=config.candidate_parents)
            .resolve_candidate_parents(n),
            dtype=np.int64,
        )

        t0 = time.perf_counter()
        assignment = rng.random_labels(n, k)
        self._fill_empty_modules(assignment, k, rng)

        # One persistent executor serves every pooled phase: all M-step
        # iterations and the final network build (a single pool, a single
        # shared-memory matrix transfer).  Per-superstep trace hooks only
        # record in-process, so traced runs stay sequential.
        executor = None
        if config.parallel.n_workers != 1 and trace is None and k > 1:
            executor = self._make_executor(data, parents, seed)

        history: list[float] = []
        converged = False
        leaf_partitions: list[list[np.ndarray]] = []
        iterations = 0
        try:
            for iteration in range(config.max_iterations):
                iterations = iteration + 1
                # M-step: per-module observation clustering -> leaf partition.
                label_runs = self._m_step_labels(
                    data, assignment, k, iteration, seed, hooks, executor
                )
                leaf_partitions = [
                    [
                        np.flatnonzero(labels == cid)
                        for cid in range(int(labels.max()) + 1)
                    ]
                    for labels in label_runs
                ]

                # E-step: reassign variables by held-out predictive score.
                if trace is not None:
                    per_var = float(sum(len(lv) for lv in leaf_partitions))
                    trace.record(
                        "modules.e_step",
                        np.full(n, per_var * m / max(1, k)),
                        n_collectives=2,  # assignment all-gather + score reduce
                    )
                new_assignment, score = self._reassign(
                    data, assignment, leaf_partitions
                )
                history.append(score)
                if np.array_equal(new_assignment, assignment):
                    converged = True
                    break
                assignment = new_assignment
                self._fill_empty_modules(assignment, k, rng)

            network = self._build_network(
                matrix, assignment, k, parents, scorer, seed, hooks, trace,
                executor=executor,
            )
        finally:
            if executor is not None:
                executor.close()
        elapsed = time.perf_counter() - t0
        if trace is not None:
            trace.mark_time("modules", elapsed)
        return GenomicaResult(
            network=network,
            n_iterations=iterations,
            converged=converged,
            score_history=history,
            elapsed_seconds=elapsed,
        )

    # -- steps ------------------------------------------------------------
    def _m_step_labels(
        self,
        data: np.ndarray,
        assignment: np.ndarray,
        k: int,
        iteration: int,
        seed: int,
        hooks: SweepHooks,
        executor,
    ) -> list[np.ndarray]:
        """One M-step's per-module observation clusterings.

        With an executor, the K clustering chains of this iteration are
        dispatched through ``submit_runs`` and run concurrently: each chain
        consumes only its own ``("genomica-tree", iteration, id)`` stream
        and the module memberships are computed driver-side beforehand, so
        the labels are bit-identical to the sequential loop in any
        dispatch order.
        """
        config = self.config
        if executor is not None:
            items = [
                (iteration, module_id,
                 [int(v) for v in np.flatnonzero(assignment == module_id)])
                for module_id in range(k)
            ]
            return executor.submit_runs(_genomica_mstep_run, items)
        label_runs: list[np.ndarray] = []
        for module_id in range(k):
            members = np.flatnonzero(assignment == module_id)
            block = data[members]
            mrng = GibbsRandom(
                make_stream(
                    seed, "genomica-tree", iteration, module_id,
                    backend=config.rng_backend,
                )
            )
            (labels,) = run_obs_only_ganesh(
                block, mrng, n_update_steps=config.tree_update_steps,
                burn_in=config.tree_update_steps - 1, prior=config.prior,
                hooks=hooks, kernel_backend=config.parallel.kernel_backend,
            )
            label_runs.append(labels)
        return label_runs

    def _fill_empty_modules(self, assignment: np.ndarray, k: int, rng: GibbsRandom) -> None:
        """Ensure no module is empty (GENOMICA keeps K fixed)."""
        counts = np.bincount(assignment, minlength=k)
        for module_id in np.flatnonzero(counts == 0):
            donors = np.flatnonzero(np.bincount(assignment, minlength=k) > 1)
            if donors.size == 0:
                return
            donor = int(donors[rng.randint(donors.size)])
            candidates = np.flatnonzero(assignment == donor)
            victim = int(candidates[rng.randint(candidates.size)])
            assignment[victim] = module_id

    def _leaf_stats(self, data: np.ndarray, members: np.ndarray, leaves) -> list[tuple]:
        stats = []
        block = data[members]
        for obs in leaves:
            vals = block[:, obs]
            stats.append((float(vals.size), float(vals.sum()), float((vals**2).sum())))
        return stats

    def _module_leaf_stats(self, data: np.ndarray, assignment: np.ndarray, leaf_partitions):
        """Per-module leaf statistics under the current assignment."""
        stats = []
        for module_id in range(len(leaf_partitions)):
            members = np.flatnonzero(assignment == module_id)
            stats.append(self._leaf_stats(data, members, leaf_partitions[module_id]))
        return stats

    def _reassign(
        self,
        data: np.ndarray,
        assignment: np.ndarray,
        leaf_partitions,
        var_range: tuple[int, int] | None = None,
    ) -> tuple[np.ndarray, float]:
        """One E-step pass.

        Returns the new assignment for the variables in ``var_range``
        (default: all) and their total score.  Each variable's decision
        depends only on the *old* assignment (a synchronous update), which
        is what makes the E-step block-parallelizable with identical
        results (the GENOMICA parallelizations of Liu et al. / Jiang et
        al. exploit the same structure).
        """
        prior = self.config.prior
        n = data.shape[0]
        k = len(leaf_partitions)
        lo, hi = var_range if var_range is not None else (0, n)

        module_stats = self._module_leaf_stats(data, assignment, leaf_partitions)

        new_assignment = assignment[lo:hi].copy()
        total_score = 0.0
        for var in range(lo, hi):
            row = data[var]
            current = int(assignment[var])
            best_score, best_module = -np.inf, current
            for module_id in range(k):
                leaves = leaf_partitions[module_id]
                stats = module_stats[module_id]
                score = 0.0
                for (count, tot, sq), obs in zip(stats, leaves):
                    r = row[obs]
                    rc, rt, rq = float(r.size), float(r.sum()), float((r**2).sum())
                    if module_id == current:
                        # Held-out: remove the row's own contribution.
                        base = log_marginal(count - rc, tot - rt, sq - rq, prior)
                        with_row = log_marginal(count, tot, sq, prior)
                    else:
                        base = log_marginal(count, tot, sq, prior)
                        with_row = log_marginal(count + rc, tot + rt, sq + rq, prior)
                    score += float(with_row) - float(base)
                if score > best_score:
                    best_score, best_module = score, module_id
            new_assignment[var - lo] = best_module
            total_score += best_score
        return new_assignment, total_score

    # -- output -----------------------------------------------------------
    def _build_network(
        self,
        matrix: ExpressionMatrix,
        assignment: np.ndarray,
        k: int,
        parents: np.ndarray,
        scorer: SplitScorer,
        seed: int,
        hooks: SweepHooks = SweepHooks(),
        trace=None,
        executor=None,
    ) -> ModuleNetwork:
        """Final trees with the deterministic best split per node.

        With an executor (``config.parallel.n_workers > 1`` and no trace —
        per-superstep hooks only record in-process) the K module builds run
        concurrently on the persistent task-pool executor; each consumes
        only its own ``("genomica-final", id)`` stream, so the network is
        bit-identical to the sequential loop.
        """
        config = self.config
        data = matrix.values
        members_of = [
            [int(v) for v in np.flatnonzero(assignment == module_id)]
            for module_id in range(k)
        ]
        if executor is not None:
            modules = executor.submit_runs(
                _genomica_module_run, list(enumerate(members_of))
            )
        else:
            modules = [
                build_final_module(
                    data, config, module_id, members, parents, scorer, seed,
                    hooks=hooks, trace=trace,
                )
                for module_id, members in enumerate(members_of)
            ]
        return ModuleNetwork(modules, matrix.var_names, matrix.n_obs)

    def _make_executor(self, data: np.ndarray, parents: np.ndarray, seed: int):
        """A persistent task-pool executor carrying the GENOMICA bridge config."""
        from repro.parallel.executor import TaskPoolExecutor

        config = self.config
        # The executor's worker context carries a LearnerConfig; bridge the
        # GENOMICA parameters into the fields the worker entry points read.
        bridge = LearnerConfig(
            candidate_parents=config.candidate_parents,
            beta_grid=config.beta_grid,
            max_sampling_steps=1,
            tree_update_steps=config.tree_update_steps,
            prior=config.prior,
            rng_backend=config.rng_backend,
            parallel=config.parallel,
        )
        return TaskPoolExecutor(data, parents, bridge, seed)


def select_best_split(
    data: np.ndarray,
    node,
    parents: np.ndarray,
    scores: np.ndarray,
    accepted: np.ndarray,
) -> Split | None:
    """The deterministic GENOMICA split choice from flat grid-best scores.

    ``scores``/``accepted`` are the node's candidate rows in enumeration
    order (parent-major, observation-minor).  Returns ``None`` when no
    candidate was accepted; otherwise attaches the chosen split to the node
    and returns it.  Shared by the sequential, pooled and SPMD builds so
    the argmax and posterior-weight conventions cannot drift apart.
    """
    if not accepted.any():
        return None
    masked = np.where(accepted, scores, -np.inf)
    best = int(np.argmax(masked))
    n_obs = int(node.observations.size)
    # Posterior of the chosen split under the node's softmax — comparable
    # to Lemon-Tree's weights for parent scoring.
    retained = scores[accepted]
    weight = float(
        np.exp(scores[best] - retained.max())
        / np.exp(retained - retained.max()).sum()
    )
    split = Split(
        parent=int(parents[best // n_obs]),
        value=float(data[parents[best // n_obs], node.observations[best % n_obs]]),
        node_id=node.node_id,
        posterior=weight,
        n_obs=n_obs,
    )
    node.weighted_splits = [split]
    return split


def build_final_module(
    data: np.ndarray,
    config: GenomicaConfig,
    module_id: int,
    members: list[int],
    parents: np.ndarray,
    scorer: SplitScorer,
    seed: int,
    hooks: SweepHooks = SweepHooks(),
    trace=None,
) -> Module:
    """One module of the final network (tree + deterministic best splits).

    Self-contained: consumes only the module's ``("genomica-final", id)``
    stream, so concurrent executions — in any order, on any worker —
    produce the module the sequential loop would.
    """
    if not members:
        return Module(module_id=module_id, members=[])
    block = data[members]
    mrng = GibbsRandom(
        make_stream(seed, "genomica-final", module_id, backend=config.rng_backend)
    )
    (labels,) = run_obs_only_ganesh(
        block, mrng, n_update_steps=config.tree_update_steps,
        burn_in=config.tree_update_steps - 1, prior=config.prior,
        hooks=hooks, kernel_backend=scorer.kernel_backend,
    )
    tree = build_tree_structure(block, labels, module_id, config.prior, hooks)
    selected: list[Split] = []
    for node in tree.internal_nodes():
        kernel = node_kernel(data, node, parents, scorer)
        if trace is not None:
            trace.record(
                "modules.split_search",
                np.full(
                    kernel.n_items,
                    float(scorer.beta_grid.size * kernel.n_obs),
                ),
                n_collectives=1,
            )
        scores, _beta, accepted = scorer.score_grid_best_kernel(kernel)
        split = select_best_split(data, node, parents, scores, accepted)
        if split is not None:
            selected.append(split)
    module = Module(module_id=module_id, members=members, trees=[tree])
    module.weighted_parents = accumulate_parent_scores(selected)
    return module


def _genomica_mstep_run(ctx, item) -> np.ndarray:
    """Task-pool entry point: one M-step observation clustering.

    ``item`` is ``(iteration, module_id, members)``; the member list is
    computed driver-side under the current assignment, so the worker only
    replays the module's private ``("genomica-tree", iteration, id)``
    stream against the shared-memory matrix — bit-identical to the
    sequential loop regardless of dispatch order.
    """
    iteration, module_id, members = item
    config = ctx["config"]
    block = ctx["data"][np.asarray(members, dtype=np.int64)]
    mrng = GibbsRandom(
        make_stream(
            ctx["seed"], "genomica-tree", iteration, module_id,
            backend=config.rng_backend,
        )
    )
    (labels,) = run_obs_only_ganesh(
        block, mrng, n_update_steps=config.tree_update_steps,
        burn_in=config.tree_update_steps - 1, prior=config.prior,
        kernel_backend=config.parallel.kernel_backend,
    )
    return labels


def _genomica_module_run(ctx, item) -> Module:
    """Task-pool entry point: one final-network module from the worker ctx.

    The worker context carries the bridge :class:`LearnerConfig` built by
    :meth:`GenomicaLearner._make_executor`; reconstruct the
    GENOMICA parameters it encodes and build the module against the
    shared-memory matrix.
    """
    module_id, members = item
    config = ctx["config"]
    gconfig = GenomicaConfig(
        tree_update_steps=config.tree_update_steps,
        candidate_parents=config.candidate_parents,
        beta_grid=config.beta_grid,
        prior=config.prior,
        rng_backend=config.rng_backend,
    )
    return build_final_module(
        ctx["data"], gconfig, module_id, members, ctx["parents"],
        ctx["scorer"], ctx["seed"],
    )
