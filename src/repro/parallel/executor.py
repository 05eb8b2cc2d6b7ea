"""The one scheduler of Tasks 1 and 3, and the executor factory.

Every Task 1 / Task 3 run — ``learn``, ``sample_clusterings``,
``learn_from_modules``, the service's lease — obtains its executor from
:func:`open_executor`, the one place that picks the implementation from
``config.parallel``.  An executor is :class:`TaskScheduler` bound to a
**transport**:

* the scheduler owns every decision about *what* runs and in what order —
  checkpoint preload and the pending list, largest-first module order, the
  module-vs-split decomposition (:func:`choose_mode`, evaluated once with
  the tier's *total* worker count), split chunking, reassembly by item
  index, and the reduction of the transports' completion records into
  results, :class:`~repro.parallel.trace.WorkTrace` and one
  :class:`~repro.parallel.transport.ExecutorStats`;
* a transport only knows how an ordered item list reaches a process:
  in-process or the shared-memory pool (:mod:`repro.parallel.transport`,
  bound as :class:`TaskPoolExecutor`), or shard nodes
  (:mod:`repro.parallel.sharding`, bound as ``ShardedExecutor``).

**Task 1**: the G GaneSH chains each draw only their replicated
``("ganesh", g)`` stream, so the ensemble is bit-identical for any worker
count or completion order.  **Task 3** keeps both of the paper's
parallelism levels: ``module`` mode runs *whole* modules, one LPT-balanced
batch per worker (each module consumes only its ``("modules", id)`` /
``("splits", id)`` streams; LPT attacks the Section 5.3.1 imbalance), ``split`` mode builds trees in
the driver and scores the candidate splits of *all* pending modules'
nodes over every worker of the tier, cut into blocks of candidate parents
(Algorithm 5), for the few-huge-modules regime module granularity cannot
balance.  The driver builds the executor's checkpoint store
(:class:`~repro.core.checkpoints.CheckpointStore`) once; whoever runs a
unit writes it before reporting it, so an interrupted parallel run
resumes exactly like a sequential one.
"""

from __future__ import annotations

import numpy as np

from repro.core.checkpoints import CheckpointStore
from repro.core.config import LearnerConfig
from repro.datatypes import Module
from repro.parallel.costmodel import block_bounds
from repro.parallel.tasks import (
    _ganesh_run,
    _module_batch_run,
    _score_chunk_run,
    select_phase,
    tree_phase,
)
from repro.parallel.transport import (
    Transport,
    WorkerCrashedError,  # noqa: F401 - re-exported: callers import it from here
    local_transport,
)
from repro.scoring.kernel import resolve_kernel_backend
from repro.trees.splits import gather_parent_blocks

# -- mode heuristic ---------------------------------------------------------


def estimate_module_cost(members, n_obs: int, config: LearnerConfig) -> float:
    """Crude relative cost of learning one module.

    Observation clustering scales with the block size ``|members| * m``;
    split scoring with the candidate-split count times the node size, i.e.
    roughly ``m^2`` per tree level times the parent count (identical across
    modules of one run, so it enters as a constant floor).  The estimate
    only needs to *rank* modules for LPT dispatch and flag dominating ones.
    """
    return float(len(members) * n_obs + n_obs * n_obs)


def choose_mode(costs, n_workers: int) -> str:
    """Pick module- vs split-level parallelism from estimated module costs.

    Module granularity wins whenever there are enough modules to keep every
    worker busy and no single module dominates the total (a module larger
    than twice the ideal per-worker share caps the speedup at the stragg-
    ler's run-time — the paper's Section 5.3.1 imbalance).  Otherwise the
    fine-grained flat split list is the only decomposition that balances.
    """
    costs = list(costs)
    if n_workers <= 1:
        return "module"
    if len(costs) < n_workers:
        return "split"
    total = sum(costs)
    if total > 0 and max(costs) * n_workers > 2.0 * total:
        return "split"
    return "module"


# -- the scheduler ------------------------------------------------------------


class TaskScheduler:
    """Runs the pipeline's tasks over a transport.

    Usage (normally through :func:`open_executor`)::

        with open_executor(data, config, seed) as executor:
            samples = executor.sample_ganesh_runs(n_runs, trace=trace)
            modules = executor.learn_modules(modules_members, trace=trace)

    Everything comes from ``config.parallel``.  Whatever the transport
    starts (a pool and its shared matrix, shard nodes) is created on the
    first dispatch and lives until :meth:`close` (or context exit), however
    many task phases ride it.  :meth:`submit_runs` is the generic dispatch
    primitive under the task entry points; GENOMICA's M-step clusterings,
    E-step blocks and module builds use it directly.
    """

    #: test hook: a callable permuting the dispatch order of
    #: :meth:`submit_runs` (``hook(indices) -> indices``).  Results are
    #: reassembled by item index, so any permutation — and any completion
    #: order it induces — must leave outputs bit-identical; the equivalence
    #: tests shuffle dispatch through this to prove it.
    dispatch_order_hook = None

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.data = transport.data
        self.parents = transport.parents
        self.config = transport.config
        self.seed = transport.seed
        self.checkpoints = transport.checkpoints
        #: total workers across the tier (what the learner reports)
        self.n_workers = transport.n_workers
        self.schedule = self.config.parallel.schedule
        self.stats = transport.stats

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Start the transport now rather than on the first dispatch."""
        self.transport.start()

    def close(self) -> None:
        self.transport.close()

    def worker_inits(self) -> int:
        """How many worker initializations ran (== workers when the matrix
        was shipped exactly once per worker; 0 in-process)."""
        return self.transport.worker_inits()

    def worker_pids(self) -> list[int]:
        """PIDs of the live processes executing this executor's items."""
        return self.transport.worker_pids()

    # -- generic dispatch ---------------------------------------------------
    def submit_runs(
        self,
        fn,
        items,
        *,
        schedule: str | None = None,
        chunksize: int | None = None,
        trace=None,
    ):
        """Run ``fn(ctx, item)`` for every item on the transport.

        ``fn`` must be a picklable module-level callable (one of
        :data:`repro.parallel.tasks.TASK_RUNNERS` on shard nodes); ``ctx``
        is the executing process's matrix/parents/config/seed/checkpoint
        store.  The returned list is aligned with ``items`` whatever the
        dispatch permutation (:attr:`dispatch_order_hook`) or completion
        order: results are reassembled by item index.

        ``schedule`` defaults to the executor's (``dynamic`` pulls items
        one at a time, ``static`` maps contiguous equal-count chunks).
        Busy seconds and kernel counters land in ``trace`` when one is
        given.  A worker process dying mid-run raises
        :class:`WorkerCrashedError`; an exception *raised* by ``fn``
        propagates as itself.
        """
        items = list(items)
        if not items:
            return []
        order = list(range(len(items)))
        if self.dispatch_order_hook is not None:
            order = list(self.dispatch_order_hook(order))
        records = self.transport.run(
            fn,
            [(index, items[index]) for index in order],
            schedule=schedule or self.schedule,
            chunksize=chunksize,
        )
        self.stats.tasks_dispatched += len(items)
        if trace is not None:
            self.transport.annotate(trace)
        return self._reduce(records, len(items), trace)

    def _reduce(self, records, n_items: int, trace) -> list:
        """Completion records -> results in item order, and the trace."""
        results: list = [None] * n_items
        for index, result, node, worker, secs, kernel in records:
            results[index] = result
            if trace is None:
                continue
            label = f"worker-{worker}"
            if node is not None:
                label = f"shard{node}/{label}"
                trace.mark_node_time(f"shard{node}", secs)
            trace.mark_kernel(kernel)
            trace.mark_worker_time(label, secs)
        return results

    # -- task 1: the G GaneSH co-clustering runs ---------------------------
    def sample_ganesh_runs(self, n_runs: int, trace=None) -> list[np.ndarray]:
        """Task 1: the G chains, concurrently above one worker, resumable.

        Runs already checkpointed as ``ganesh_<g>.npz`` are loaded instead
        of re-executed; the rest dispatch through :meth:`submit_runs`
        (dynamic pulling — chain run-times vary stochastically).  The
        returned ensemble is the same for any worker count because run
        ``g`` consumes only its replicated ``("ganesh", g)`` stream.
        """
        checkpoints = self.checkpoints
        samples: dict[int, np.ndarray] = {}
        pending: list[int] = []
        for g in range(n_runs):
            labels = None if checkpoints is None else checkpoints.load_run(g)
            if labels is None:
                pending.append(g)
            else:
                samples[g] = labels
        results = self.submit_runs(
            _ganesh_run,
            [(g, trace is not None) for g in pending],
            schedule="dynamic",
            trace=trace,
        )
        # Results come back in ascending run order, so the merged trace is
        # deterministic whatever the completion order was.
        for g, labels, steps in results:
            samples[g] = labels
            if trace is not None:
                trace.steps.extend(steps)
        return [samples[g] for g in range(n_runs)]

    # -- fine-grained scoring (the inner level) ----------------------------
    def score_splits(self, node_records, trace=None):
        """Score the candidate splits of a node list (Algorithm 5's
        decomposition), cut by candidate parent.

        ``node_records`` are ``(module_id, obs, left_obs, module_obs_base)``
        in enumeration order (see :func:`repro.parallel.tasks.tree_phase`).
        A work item is a contiguous block ``[l0, l1)`` of the candidate
        parents of *every* node, scored as one batch, so each margin row is
        filled once in the whole pass: ``schedule="static"`` cuts one block
        per worker, ``"dynamic"`` ~4 per worker pulled from a queue (the
        paper's Section 6 ablation), never more blocks than parents.
        Returns flat ``(log_scores, steps, accepted)`` arrays, bit-identical
        to in-process scoring however the parents are cut: each split's
        draws are addressed by its index.  ``steps`` is counted only for
        ``trace`` (``None`` without one).
        """
        n_parents = len(self.parents)
        per_worker = 1 if self.schedule == "static" else 4
        blocks = block_bounds(n_parents, min(n_parents, per_worker * self.n_workers))
        results = self.submit_runs(
            _score_chunk_run,
            [(l0, l1, node_records, trace is not None) for l0, l1 in blocks],
            chunksize=1,
            trace=trace,
        )
        return gather_parent_blocks(
            [len(obs) for _module_id, obs, *_rest in node_records], n_parents, blocks,
            results,
        )

    # -- module learning (the outer level) ---------------------------------
    def learn_modules(self, modules_members, trace=None) -> list[Module]:
        """Learn every module, resuming from checkpoints where present."""
        checkpoints = self.checkpoints
        modules: dict[int, Module] = {}
        pending: list[tuple[int, list[int]]] = []
        for module_id, members in enumerate(modules_members):
            module = (
                None if checkpoints is None
                else checkpoints.load_module(module_id, members)
            )
            if module is None:
                pending.append((module_id, list(members)))
            else:
                modules[module_id] = module

        n_obs = self.data.shape[1]
        self.stats.mode = choose_mode(
            [estimate_module_cost(m, n_obs, self.config) for _, m in pending],
            self.n_workers,
        )
        if pending and self.stats.mode == "module":
            self._learn_modules_coarse(pending, modules, trace)
        elif pending:
            self._learn_modules_fine(pending, modules, trace)
        return [modules[module_id] for module_id in range(len(modules_members))]

    def _learn_modules_coarse(self, pending, modules, trace) -> None:
        """Module-level parallelism: one batch of whole modules per worker.

        A batch scores the candidate splits of all its modules' nodes
        together — on the native backend they share every margin row
        (:func:`repro.trees.splits.score_nodes`) — so pending modules are
        cut into as few batches as keep every worker busy: greedy LPT by
        estimated cost under the ``dynamic`` schedule (attacking the
        Section 5.3.1 imbalance), contiguous equal-count blocks under
        ``static``.  Whoever runs a batch checkpoints each of its modules
        as selection finishes it (the task context carries the store), so
        an interruption loses at most the batches in flight.
        """
        n_obs = self.data.shape[1]
        n_batches = min(self.n_workers, len(pending))
        if self.schedule == "dynamic":
            costs = {
                module_id: estimate_module_cost(members, n_obs, self.config)
                for module_id, members in pending
            }
            batches = [[] for _ in range(n_batches)]
            loads = [0.0] * n_batches
            for item in sorted(pending, key=lambda item: (-costs[item[0]], item[0])):
                lightest = loads.index(min(loads))
                batches[lightest].append(item)
                loads[lightest] += costs[item[0]]
        else:
            batches = [
                pending[lo:hi] for lo, hi in block_bounds(len(pending), n_batches)
            ]
        results = self.submit_runs(
            _module_batch_run,
            [(batch, trace is not None) for batch in batches],
            trace=trace,
        )
        for module_id, module, steps in sorted(
            learned for batch in results for learned in batch
        ):
            modules[module_id] = module
            if trace is not None:
                trace.steps.extend(steps)

    def _learn_modules_fine(self, pending, modules, trace) -> None:
        """Split-level parallelism: trees built in the driver (each on its
        own module stream), the candidate splits of *all* modules' nodes
        scored in one pass over every worker (:meth:`score_splits`, blocks
        of candidate parents), then the sequential selection replayed per
        module.  One list across modules is exactly the paper's
        load-balance argument for Algorithm 5.
        """
        states = []
        records = []
        for module_id, members in pending:
            trees, nodes, recs, mrng = tree_phase(
                self.data, module_id, members, self.config, self.seed, trace
            )
            states.append((module_id, members, trees, nodes, mrng))
            records.extend(recs)

        log_scores, steps, accepted = self.score_splits(records, trace=trace)

        offset = 0
        for module_id, members, trees, nodes, mrng in states:
            module, offset = select_phase(
                self.data,
                module_id,
                members,
                trees,
                nodes,
                self.parents,
                mrng,
                self.config,
                log_scores,
                steps,
                accepted,
                offset,
                trace,
            )
            if self.checkpoints is not None:
                self.checkpoints.store_module(module)
            modules[module_id] = module


class TaskPoolExecutor(TaskScheduler):
    """The scheduler on this host: in-process at one worker (this *is* the
    sequential learner), above that on persistent worker children over one
    shared-memory matrix (:class:`~repro.parallel.transport.PoolTransport`),
    launched by ``mp_context``'s start method."""

    def __init__(
        self,
        data: np.ndarray,
        parents: np.ndarray,
        config: LearnerConfig,
        seed: int,
        *,
        checkpoint_dir=None,
        mp_context: str | None = None,
    ) -> None:
        super().__init__(
            local_transport(
                data, parents, config, seed,
                CheckpointStore.open(checkpoint_dir, data, config, seed),
                mp_context,
            )
        )


# -- the factory ---------------------------------------------------------------


def open_executor(
    data: np.ndarray,
    config: LearnerConfig,
    seed: int,
    checkpoint_dir=None,
    *,
    mp_context: str | None = None,
):
    """The executor ``config.parallel`` asks for — the one dispatch seam.

    ``n_nodes > 1`` binds the scheduler to the shard-node transport,
    otherwise to this host's (in-process at one worker, pooled above).
    Either way the result is a :class:`TaskScheduler` and a context
    manager; the caller closes what it opens.  ``mp_context`` is the start
    method of every child process the executor launches, pool workers and
    shard nodes alike (:func:`repro.parallel.poolutil.pool_context`;
    callers living in a multi-threaded process pass ``"spawn"``).  Every
    such child is a :class:`~repro.parallel.poolutil.ChildGroup` member
    over a socketpair, so a dead one raises its tier's typed error
    (:class:`WorkerCrashedError`, ``NodeCrashedError``) as soon as its
    channel reaches EOF; there is nothing to tune.

    The job's kernel backend is resolved here, before any child starts: a
    forked worker or node inherits the loaded, certified native kernel
    instead of certifying its own, and an explicit ``"native"`` this host
    cannot load raises its ``RuntimeError`` in the caller.
    """
    resolve_kernel_backend(config.parallel.kernel_backend)
    parents = np.asarray(
        config.resolve_candidate_parents(data.shape[0]), dtype=np.int64
    )
    if config.parallel.n_nodes > 1:
        from repro.parallel.sharding import ShardedExecutor

        return ShardedExecutor(
            data, parents, config, seed,
            checkpoint_dir=checkpoint_dir, mp_context=mp_context,
        )
    return TaskPoolExecutor(
        data,
        parents,
        config,
        seed,
        checkpoint_dir=checkpoint_dir,
        mp_context=mp_context,
    )
