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
from repro.core.learner import _hooks_for, _require_complete
from repro.datatypes import ExpressionMatrix, Module, ModuleNetwork, Split
from repro.ganesh.coclustering import run_obs_only_ganesh
from repro.parallel.costmodel import block_bounds
from repro.parallel.executor import open_executor
from repro.parallel.trace import WorkTrace
from repro.rng.streams import GibbsRandom, make_stream
from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior, log_marginal
from repro.scoring.split_score import DEFAULT_BETA_GRID, check_beta_grid
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
    #: execution backend, read by :func:`repro.parallel.executor.open_executor`:
    #: the M-step clusterings, the E-step's variable blocks and the final
    #: module builds run in-process at ``parallel.n_workers == 1`` and
    #: concurrently on one persistent pool above, traced or not —
    #: bit-identical output because each clustering or build consumes only
    #: its own named stream and each E-step block reads only the old
    #: assignment (one host: ``n_nodes`` must be 1)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    def __post_init__(self) -> None:
        if self.n_modules < 1:
            raise ValueError("n_modules must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tree_update_steps < 1:
            raise ValueError("tree_update_steps must be at least 1")
        check_beta_grid(self.beta_grid)
        if self.rng_backend not in ("philox", "mrg"):
            raise ValueError("rng_backend must be 'philox' or 'mrg'")
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
        extension.

        Every M-step's clusterings, every E-step's variable blocks (one per
        worker) and the final module builds run on one executor from
        :func:`repro.parallel.executor.open_executor` — in-process at one
        worker, one persistent pool above, traced or not.  Each clustering
        or build consumes only its own named stream and returns its own
        trace steps, which are merged in module order; E-step labels join
        in block order and scores sum in variable order.  So the network,
        the score history and the trace are the same for any worker count.
        """
        _require_complete(matrix)
        config = self.config
        data = matrix.values
        n, m = data.shape
        k = min(config.n_modules, n)
        rng = GibbsRandom(make_stream(seed, "genomica", backend=config.rng_backend))
        # The task context carries a LearnerConfig: bridge the GENOMICA
        # parameters into the fields the runners below read.
        bridge = LearnerConfig(
            candidate_parents=config.candidate_parents,
            beta_grid=config.beta_grid,
            max_sampling_steps=1,
            tree_update_steps=config.tree_update_steps,
            prior=config.prior,
            rng_backend=config.rng_backend,
            parallel=config.parallel,
        )

        def dispatch(executor, fn, items) -> list:
            results = executor.submit_runs(
                fn, [(item, trace is not None) for item in items], trace=trace
            )
            if trace is not None:
                for _value, steps in results:
                    trace.steps.extend(steps)
            return [value for value, _steps in results]

        t0 = time.perf_counter()
        assignment = rng.random_labels(n, k)
        self._fill_empty_modules(assignment, k, rng)

        history: list[float] = []
        converged = False
        iterations = 0
        with open_executor(data, bridge, seed) as executor:
            for iteration in range(config.max_iterations):
                iterations = iteration + 1
                # M-step: per-module observation clustering -> leaf partition.
                label_runs = dispatch(executor, _genomica_mstep_run, [
                    (iteration, module_id, _members(assignment, module_id))
                    for module_id in range(k)
                ])
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
                blocks = executor.submit_runs(_genomica_estep_run, [
                    (lo, hi, assignment, leaf_partitions)
                    for lo, hi in block_bounds(n, min(n, executor.n_workers))
                ], trace=trace)
                new_assignment = np.concatenate([labels for labels, _ in blocks])
                # Left to right in variable order: the one-block sum, bit for bit.
                history.append(
                    float(np.cumsum(np.concatenate([best for _, best in blocks]))[-1])
                )
                if np.array_equal(new_assignment, assignment):
                    converged = True
                    break
                assignment = new_assignment
                self._fill_empty_modules(assignment, k, rng)

            modules = dispatch(executor, _genomica_module_run, [
                (module_id, _members(assignment, module_id)) for module_id in range(k)
            ])
        network = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
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
    and returns it.
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


def _members(assignment: np.ndarray, module_id: int) -> list[int]:
    return [int(v) for v in np.flatnonzero(assignment == module_id)]


def _reassign(
    data: np.ndarray,
    assignment: np.ndarray,
    leaf_partitions,
    prior: NormalGammaPrior,
    var_range: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """One E-step pass over the variables ``[lo, hi)`` of ``var_range``.

    Returns their new labels and their best (held-out predictive) scores.
    Each variable's decision depends only on the *old* assignment (a
    synchronous update), which is what makes the E-step block-parallel
    with identical results (the GENOMICA parallelizations of Liu et al. /
    Jiang et al. exploit the same structure).
    """
    lo, hi = var_range
    module_stats = []
    for module_id, leaves in enumerate(leaf_partitions):
        block = data[np.flatnonzero(assignment == module_id)]
        module_stats.append([
            (float(vals.size), float(vals.sum()), float((vals**2).sum()))
            for vals in (block[:, obs] for obs in leaves)
        ])

    new_labels = assignment[lo:hi].copy()
    best_scores = np.empty(hi - lo)
    for var in range(lo, hi):
        row = data[var]
        current = int(assignment[var])
        best_score, best_module = -np.inf, current
        for module_id, (leaves, stats) in enumerate(zip(leaf_partitions, module_stats)):
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
        new_labels[var - lo] = best_module
        best_scores[var - lo] = best_score
    return new_labels, best_scores


def _genomica_estep_run(ctx, item):
    """Task runner: one block of the synchronous E-step.

    ``item`` is ``(lo, hi, assignment, leaf_partitions)``: the driver's
    old assignment and this iteration's leaf partitions, so any block, on
    any worker, decides its variables exactly as one whole pass would.
    Returns the new labels and the best scores of variables ``[lo, hi)``.
    """
    lo, hi, assignment, leaf_partitions = item
    return _reassign(
        ctx["data"], assignment, leaf_partitions, ctx["config"].prior, (lo, hi)
    )


def _genomica_mstep_run(ctx, item):
    """Task runner: one M-step observation clustering.

    ``item`` is ``((iteration, module_id, members), want_trace)``; the
    member list is computed driver-side under the current assignment, so
    the runner only replays the module's private ``("genomica-tree",
    iteration, id)`` stream — the same labels on any worker, in any
    dispatch order.  Returns ``(labels, trace steps)``.
    """
    (iteration, module_id, members), want_trace = item
    config = ctx["config"]
    trace = WorkTrace() if want_trace else None
    mrng = GibbsRandom(
        make_stream(
            ctx["seed"], "genomica-tree", iteration, module_id,
            backend=config.rng_backend,
        )
    )
    (labels,) = run_obs_only_ganesh(
        ctx["data"][np.asarray(members, dtype=np.int64)], mrng,
        n_update_steps=config.tree_update_steps,
        burn_in=config.tree_update_steps - 1, prior=config.prior,
        hooks=_hooks_for(trace), kernel_backend=config.parallel.kernel_backend,
    )
    return labels, (trace.steps if trace is not None else [])


def _genomica_module_run(ctx, item):
    """Task runner: one module of the final network (tree + deterministic
    best splits).

    ``item`` is ``((module_id, members), want_trace)``.  The module consumes
    only its ``("genomica-final", id)`` stream and scores on the task
    context's scorer, so its counters drain into the completion record.
    Returns ``(module, trace steps)``.
    """
    (module_id, members), want_trace = item
    if not members:
        return Module(module_id=module_id, members=[]), []
    config = ctx["config"]
    data, parents, scorer = ctx["data"], ctx["parents"], ctx["scorer"]
    trace = WorkTrace() if want_trace else None
    hooks = _hooks_for(trace)
    block = data[members]
    mrng = GibbsRandom(
        make_stream(ctx["seed"], "genomica-final", module_id, backend=config.rng_backend)
    )
    (labels,) = run_obs_only_ganesh(
        block, mrng, n_update_steps=config.tree_update_steps,
        burn_in=config.tree_update_steps - 1, prior=config.prior,
        hooks=hooks, kernel_backend=config.parallel.kernel_backend,
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
    return module, (trace.steps if trace is not None else [])
