"""The optimized module-network learner.

This is the reproduction's counterpart of the paper's optimized C++
implementation (Section 4.1): the full three-task Lemon-Tree pipeline with
NumPy-vectorised scoring.  Run on the default one-worker executor it
serves as ``T_1`` — the best sequential implementation — in every scaling
metric, and as the source of the work traces the parallel projections
replay.

Randomness is drawn from named streams so that execution order between
independent units (GaneSH runs, modules) carries no hidden coupling:

* ``("ganesh", g)`` — the replicated stream of GaneSH run ``g``;
* ``("modules", module_id)`` — observation clustering and split selection
  for one module;
* ``("splits", module_id)`` — the indexed stream addressing each candidate
  split's private sampling draws by its enumeration index.

The SPMD :class:`repro.parallel.engine.ParallelLearner` and the test
suite's pure-Python oracle (``tests/reference.py``) consume the same streams
in the same order, which is what makes all three produce identical networks
(the paper's consistency requirement, Sections 3 and 4.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.consensus import consensus_clusters
from repro.core.config import LearnerConfig
from repro.datatypes import ExpressionMatrix, Module, ModuleNetwork, TaskTimes
from repro.ganesh.coclustering import SweepHooks, run_obs_only_ganesh
from repro.rng.streams import GibbsRandom, IndexedStream, make_stream
from repro.scoring.split_score import SplitScorer
from repro.trees.hierarchy import build_tree_structure
from repro.trees.parents import accumulate_parent_scores
from repro.trees.splits import NodeSplitScores, score_nodes, select_node_splits


def _require_complete(matrix: ExpressionMatrix) -> None:
    """Reject NaN (missing-data) matrices at the pipeline boundary.

    The incremental suffstats algebra silently poisons every downstream
    score once a NaN enters it, so missingness must be resolved *before*
    learning rather than discovered as a corrupt network afterwards.
    """
    if np.isnan(matrix.values).any():
        raise ValueError(
            "expression matrix contains missing values (NaN); call "
            "matrix.impute_missing() or drop the affected observations "
            "before learning"
        )


@dataclass
class LearnResult:
    """A learned network plus run metadata."""

    network: ModuleNetwork
    task_times: TaskTimes
    #: work trace (present when a WorkTrace was passed to ``learn``)
    trace: object | None = None
    stats: dict = field(default_factory=dict)


class LemonTreeLearner:
    """The Lemon-Tree pipeline: Task 1 and Task 3 dispatched on an executor,
    Task 2 in between.

    How the tasks execute — in this process, on a worker pool, across shard
    nodes — is decided in exactly one place,
    :func:`repro.parallel.executor.open_executor`, from ``config.parallel``;
    at the default ``n_workers == 1, n_nodes == 1`` that executor runs every
    task in-process and this is the sequential learner.
    """

    def __init__(self, config: LearnerConfig | None = None) -> None:
        self.config = config or LearnerConfig()

    def _open_executor(self, matrix: ExpressionMatrix, seed: int, checkpoint_dir):
        # Imported here: the executor module imports this one (tree_phase,
        # select_phase, learn_module_batch).
        from repro.parallel.executor import open_executor

        return open_executor(matrix.values, self.config, seed, checkpoint_dir)

    # -- pipeline ---------------------------------------------------------
    def learn(
        self,
        matrix: ExpressionMatrix,
        seed: int,
        trace=None,
        checkpoint_dir=None,
        executor=None,
    ) -> LearnResult:
        """Learn a module network from ``matrix`` with the given seed.

        ``trace`` may be a :class:`repro.parallel.trace.WorkTrace`; when
        given, per-superstep work vectors and task wall-times are recorded
        for parallel run-time projection.

        ``checkpoint_dir`` makes the run resumable: Task 1 persists each
        GaneSH run to ``ganesh_<g>.npz`` and Task 3 each learned module to
        ``module_<id>.json``; a restarted run skips whatever is already on
        disk and produces the identical network.

        One executor serves both Task 1 (the G independent GaneSH runs)
        and Task 3 (module learning): with ``config.parallel.n_workers >
        1`` that is one pool construction and one shared-memory matrix
        transfer per ``learn`` call.

        ``executor`` lends an externally owned executor (the service
        daemon's warm pool) for this invocation: the learner dispatches on
        it but never closes it, so the pool survives into the next job.
        The caller is responsible for the executor matching ``(matrix,
        config, seed, checkpoint_dir)``.
        """
        _require_complete(matrix)
        config = self.config
        owns_executor = executor is None
        if owns_executor:
            executor = self._open_executor(matrix, seed, checkpoint_dir)
        try:
            t0 = time.perf_counter()
            samples = executor.sample_ganesh_runs(config.n_ganesh_runs, trace=trace)
            t1 = time.perf_counter()
            modules_members = self.consensus(samples)
            t2 = time.perf_counter()
            modules = executor.learn_modules(modules_members, trace=trace)
            t3 = time.perf_counter()
        finally:
            if owns_executor:
                executor.close()

        times = TaskTimes(ganesh=t1 - t0, consensus=t2 - t1, modules=t3 - t2)
        if trace is not None:
            trace.n_ganesh_runs = config.n_ganesh_runs
        return _learn_result(matrix, modules, times, trace, executor)

    # -- task-level public API ---------------------------------------------
    # Lemon-Tree is driven task by task in practice (separate invocations
    # with intermediate files — often separate cluster jobs for the G
    # GaneSH runs); these entry points expose the same workflow.

    def sample_clusterings(
        self, matrix: ExpressionMatrix, seed: int, trace=None, checkpoint_dir=None
    ) -> list[np.ndarray]:
        """Task 1 only: the ensemble of GaneSH variable-cluster samples.

        With ``config.parallel.n_workers > 1`` the G runs execute
        concurrently; because every run draws only its own ``("ganesh",
        g)`` stream the ensemble is bit-identical to a one-worker pass.
        ``checkpoint_dir`` persists each completed run to
        ``ganesh_<g>.npz`` so an interrupted task re-executes only the
        missing runs.
        """
        _require_complete(matrix)
        with self._open_executor(matrix, seed, checkpoint_dir) as executor:
            return executor.sample_ganesh_runs(
                self.config.n_ganesh_runs, trace=trace
            )

    def consensus(self, samples: list[np.ndarray]) -> list[list[int]]:
        """Task 2 only: consensus modules from a clustering ensemble."""
        return consensus_clusters(
            [np.asarray(s) for s in samples],
            threshold=self.config.consensus_threshold,
            max_clusters=self.config.max_modules,
        )

    def learn_from_modules(
        self,
        matrix: ExpressionMatrix,
        modules_members: list[list[int]],
        seed: int,
        trace=None,
        checkpoint_dir=None,
    ) -> LearnResult:
        """Task 3 only: trees, splits and parents for given modules.

        ``modules_members`` typically comes from :meth:`consensus`, but any
        disjoint variable grouping (e.g. curated gene sets) is accepted —
        matching Lemon-Tree's ability to learn regulators for externally
        provided modules.

        ``checkpoint_dir`` enables resumable execution of this multi-day
        task (the paper's sequential runs take weeks): each completed
        module is written to ``module_<id>.json`` and an interrupted run
        restarted with the same directory skips finished modules.  Because
        every module consumes its own named random streams, a resumed run
        produces exactly the network an uninterrupted run would — for any
        worker or node count.
        """
        _require_complete(matrix)
        seen: set[int] = set()
        for members in modules_members:
            for var in members:
                if not 0 <= var < matrix.n_vars:
                    raise ValueError(f"module member {var} out of range")
                if var in seen:
                    raise ValueError(f"variable {var} appears in two modules")
                seen.add(var)
        with self._open_executor(matrix, seed, checkpoint_dir) as executor:
            t0 = time.perf_counter()
            modules = executor.learn_modules(modules_members, trace=trace)
            elapsed = time.perf_counter() - t0
        times = TaskTimes(ganesh=0.0, consensus=0.0, modules=elapsed)
        return _learn_result(matrix, modules, times, trace, executor)


def _learn_result(matrix, modules, times: TaskTimes, trace, executor) -> LearnResult:
    """Assemble the result (and close out the trace) of a finished run."""
    if trace is not None:
        for task in ("ganesh", "consensus", "modules"):
            trace.mark_time(task, getattr(times, task))
    stats = {
        "n_modules": len(modules),
        "module_sizes": [m.size for m in modules],
        "n_trees": sum(len(m.trees) for m in modules),
        "n_internal_nodes": sum(
            len(t.internal_nodes()) for m in modules for t in m.trees
        ),
        "executor": {
            "n_workers": executor.n_workers,
            "worker_inits": executor.worker_inits(),
            "pools_constructed": executor.stats.pools_constructed,
            "matrix_transfers": executor.stats.matrix_transfers,
        },
    }
    network = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
    return LearnResult(network=network, task_times=times, trace=trace, stats=stats)


#: bytes one candidate split holds in the flat score arrays of a traced
#: run (float64 log score, int64 steps, bool accepted); an untraced one
#: counts no steps and holds 9.  Batching charges 17 either way, so traced
#: and untraced runs cut the same batches and a trace's margin-row
#: counters describe the untraced run (a batch boundary moves them).
_SPLIT_BYTES = 17

#: bytes of flat score arrays one scoring batch may hold, at
#: :data:`_SPLIT_BYTES` a split; a batch of modules whose trees pass it is
#: scored in several calls.  128 MiB is ~500 root nodes of the benchmark's
#: `bench` shape (120 parents x 128 observations) — far above one `learn()`
#: there — while a root node of the paper's shape (5,716 x 2,577: 250 MB
#: traced, 133 MB untraced) is always a call of its own.
SCORE_BATCH_BYTES = 1 << 27


def tree_phase(data, module_id, members, config, seed, trace=None):
    """Step 1 of one module: observation clusterings agglomerated to trees.

    Returns ``(trees, nodes, records, mrng)`` where ``nodes`` lists
    ``(tree_index, node)`` in enumeration order, ``records`` are the node
    records ``(module_id, obs, left_obs, module_obs_base)`` split scoring
    consumes, and ``mrng`` is the module stream, positioned for split
    selection.
    """
    block = data[members]
    mrng = GibbsRandom(
        make_stream(seed, "modules", module_id, backend=config.rng_backend)
    )
    hooks = _hooks_for(trace)
    obs_samples = run_obs_only_ganesh(
        block,
        mrng,
        n_update_steps=config.tree_update_steps,
        burn_in=config.tree_burn_in,
        prior=config.prior,
        hooks=hooks,
        kernel_backend=config.parallel.kernel_backend,
    )
    trees = [
        build_tree_structure(block, labels, module_id, config.prior, hooks)
        for labels in obs_samples
    ]
    nodes = []
    records = []
    obs_base = 0
    for tree_index, tree in enumerate(trees):
        for node in tree.internal_nodes():
            nodes.append((tree_index, node))
            records.append(
                (module_id, node.observations, node.left.observations, obs_base)
            )
            obs_base += int(node.observations.size)
    return trees, nodes, records, mrng


def select_phase(
    data,
    module_id,
    members,
    trees,
    nodes,
    parents,
    mrng,
    config,
    log_scores,
    steps,
    accepted,
    offset,
    trace=None,
) -> tuple[Module, int]:
    """Steps 2-3 of one module from pre-computed flat score arrays.

    ``offset`` is the module's first row in the flat arrays; the new offset
    (one past the module's last split) is returned.  ``steps`` is read only
    for ``trace`` (``None`` without one).  Consumes exactly the
    same ``mrng`` draws whoever scored the splits, in the same order.
    """
    module = Module(module_id=module_id, members=list(members), trees=trees)
    split_base = 0
    all_weighted = []
    all_uniform = []
    for tree_index, node in nodes:
        n_splits = int(parents.size * node.observations.size)
        scores = NodeSplitScores(
            module_id=module_id,
            tree_index=tree_index,
            node=node,
            parents=parents,
            base_index=split_base,
            log_scores=log_scores[offset : offset + n_splits],
            steps=None if steps is None else steps[offset : offset + n_splits],
            accepted=accepted[offset : offset + n_splits],
        )
        offset += n_splits
        split_base += n_splits
        if trace is not None:
            trace.record(
                "modules.split_scoring",
                scores.work_units(),
                # The whole phase shares one segmented scan and one
                # all-gather (Section 3.2.3); charge them per node so
                # the per-p comm term scales with the node count.
                n_collectives=1,
                words=2 * config.n_splits_per_node,
            )
        weighted, uniform = select_node_splits(
            data, scores, mrng, config.n_splits_per_node
        )
        node.weighted_splits = weighted
        node.uniform_splits = uniform
        all_weighted.extend(weighted)
        all_uniform.extend(uniform)

    module.weighted_parents = accumulate_parent_scores(all_weighted)
    module.uniform_parents = accumulate_parent_scores(all_uniform)
    if trace is not None and split_base:
        # Learn-Parents: segmented scan + all-gather over selected splits.
        trace.record(
            "modules.parents",
            np.array([len(all_weighted) + len(all_uniform)], dtype=np.float64),
            n_collectives=2,
            words=len(all_weighted) + len(all_uniform),
        )
    return module, offset


def learn_module_batch(
    data: np.ndarray,
    batch,
    parents: np.ndarray,
    scorer: SplitScorer,
    config: LearnerConfig,
    seed: int,
    traces: dict | None = None,
    checkpoints=None,
) -> list[Module]:
    """Learn a batch of ``(module_id, members)`` modules end to end.

    Trees are built module by module (:func:`tree_phase`), the candidate
    splits of all their internal nodes are scored as one batch
    (:func:`repro.trees.splits.score_nodes` — on the native backend one
    call in which the nodes share every margin row; several when the flat
    score arrays would pass :data:`SCORE_BATCH_BYTES`), then splits are
    selected and parents aggregated module by module
    (:func:`select_phase`) and each finished module is written to
    ``checkpoints`` (a :class:`~repro.core.checkpoints.CheckpointStore`).
    A module consumes only its own named streams (``("modules", id)`` and
    ``("splits", id)``), so however modules are batched, ordered or spread
    over processes the results are bit-identical; ``traces[module_id]``
    records one module's steps in the order a module learned alone would.
    """
    parents = np.asarray(parents, dtype=np.int64)
    modules: list[Module] = []
    pending: list[tuple] = []  # modules whose trees await scoring ...
    pending_nodes: list[tuple] = []  # ... and their nodes, for score_nodes

    def score_and_select() -> None:
        log_scores, steps, accepted = score_nodes(
            data, parents, scorer, pending_nodes, want_steps=traces is not None
        )
        offset = 0
        for module_id, members, trees, nodes, mrng in pending:
            module, offset = select_phase(
                data, module_id, members, trees, nodes, parents, mrng, config,
                log_scores, steps, accepted, offset,
                None if traces is None else traces[module_id],
            )
            if checkpoints is not None:
                checkpoints.store_module(module)
            modules.append(module)
        pending.clear()
        pending_nodes.clear()

    for module_id, members in batch:
        trees, nodes, records, mrng = tree_phase(
            data, module_id, members, config, seed,
            None if traces is None else traces[module_id],
        )
        istream = IndexedStream(
            make_stream(seed, "splits", module_id, backend=config.rng_backend),
            scorer.draws_per_item,
        )
        module_nodes = [
            (obs, left_obs, istream, obs_base * parents.size)
            for _module_id, obs, left_obs, obs_base in records
        ]
        n_obs = sum(len(obs) for obs, *_rest in pending_nodes + module_nodes)
        if pending and _SPLIT_BYTES * parents.size * n_obs > SCORE_BATCH_BYTES:
            score_and_select()
        pending.append((module_id, members, trees, nodes, mrng))
        pending_nodes.extend(module_nodes)
    if pending:
        score_and_select()
    return modules


def _hooks_for(trace, run: int | None = None) -> SweepHooks:
    if trace is None:
        return SweepHooks()
    if run is None:
        return SweepHooks(record=lambda phase, costs, nc=2: trace.record(phase, costs, nc))
    return SweepHooks(
        record=lambda phase, costs, nc=2: trace.record(phase, costs, nc, run=run)
    )
