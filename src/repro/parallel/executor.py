"""The single-host executor (Tasks 1 and 3) and the executor factory.

Every Task 1 / Task 3 run — ``learn``, ``sample_clusterings``,
``learn_from_modules``, the service's lease — obtains its executor from
:func:`open_executor`, the one place that picks the implementation from
``config.parallel``: :class:`TaskPoolExecutor` on one host,
:class:`repro.parallel.sharding.ShardedExecutor` when ``n_nodes > 1``.

:class:`TaskPoolExecutor` runs the tasks of :mod:`repro.parallel.tasks`
in-process when ``n_workers == 1`` (this *is* the sequential learner) and
on **one** persistent pool with **one** shared-memory copy of the
expression matrix above that, for every parallel phase of an invocation:

* the expression matrix is placed in :mod:`multiprocessing.shared_memory`
  once and workers attach to it zero-copy;
* :meth:`TaskPoolExecutor.submit_runs` is the generic dispatch path: any
  picklable ``fn(ctx, item)`` runs on the pool with the worker context
  (matrix, parents, config, seed, checkpoint store) supplied in place, and
  results return in *item order* regardless of completion order;
* **Task 1** rides it via :meth:`TaskPoolExecutor.sample_ganesh_runs`: the
  G independent GaneSH chains each draw their replicated ``("ganesh", g)``
  stream — bit-identical to the sequential ensemble for any worker count
  or completion order — and checkpoint to ``ganesh_<g>.npz`` for resume;
* **Task 3** keeps both of the paper's parallelism levels, chosen by a
  cost heuristic:

  - ``module`` mode — each worker learns *whole* modules (observation
    clustering, trees, split scoring, parent aggregation).  Because every
    module consumes only its own named streams (``("modules", id)``,
    ``("splits", id)``), concurrent modules yield bit-identical networks.
    Dynamic dispatch is largest-module-first (LPT), attacking the load
    imbalance the paper measures in Section 5.3.1;
  - ``split`` mode — trees are built in the driver and the flat candidate-
    split list of *all* pending modules is scored in one pooled pass (the
    fine-grained decomposition of Algorithm 5), for the few-huge-modules
    regime where module granularity cannot balance the load.

Checkpoints are written as soon as a unit completes — from the worker —
so an interrupted parallel run resumes exactly like a sequential one.  A
worker process that dies mid-run is detected (the pool's replacement
worker re-runs the instrumented initializer) and surfaced as
:class:`WorkerCrashedError` instead of a silent hang; the checkpoints the
dead run left behind make the retry cheap.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from multiprocessing import TimeoutError as _MpTimeoutError
from multiprocessing import shared_memory

import numpy as np

from repro.core.config import LearnerConfig
from repro.core.learner import _GaneshCheckpoints, _ModuleCheckpoints
from repro.datatypes import Module
from repro.parallel import poolutil
from repro.parallel.checkpoint_writer import AsyncCheckpointWriter
from repro.parallel.tasks import (
    _WORKER,
    _ganesh_run,
    _module_run,
    _score_chunk_run,
    _subdivide,
    build_ctx,
    build_split_tasks,
    select_phase,
    tree_phase,
)
from repro.parallel.topology import (
    Placement,
    chunk_elements_for,
    pin_to,
    plan_placement,
)
from repro.scoring import kernel as kernel_mod


class WorkerCrashedError(RuntimeError):
    """A pool worker process died mid-task.

    Raised by :meth:`TaskPoolExecutor.submit_runs` when the pool replaces a
    worker that exited abnormally (detected via the instrumented
    initializer re-running), instead of waiting forever for the dead
    worker's lost task.  Checkpoints written before the crash remain valid;
    re-running the same call executes only the missing units.
    """


# -- shared-memory expression matrix --------------------------------------


class SharedMatrix:
    """The expression matrix in a shared-memory segment.

    Created once per executor; workers attach by name with no copy.  The
    creating process owns the segment and unlinks it on :meth:`close`.

    With a multi-domain ``placement``, the initial copy is *first-touch
    interleaved*: the driver temporarily pins itself to each NUMA domain's
    CPUs while writing that domain's contiguous row block, so the kernel
    allocates those shared pages on the memory node whose workers will
    read them (Linux's default first-touch NUMA policy).  Purely a page
    *location* effect — the bytes written are identical either way.
    """

    def __init__(self, data: np.ndarray, placement: Placement | None = None) -> None:
        data = np.ascontiguousarray(data, dtype=np.float64)
        self._shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
        self.array = np.ndarray(data.shape, dtype=data.dtype, buffer=self._shm.buf)
        if placement is not None and not placement.is_flat:
            self._first_touch_copy(data, placement)
        else:
            self.array[:] = data
        #: everything a worker needs to attach: (name, shape, dtype)
        self.spec = (self._shm.name, data.shape, data.dtype.str)

    def _first_touch_copy(self, data: np.ndarray, placement: Placement) -> None:
        getaffinity = getattr(os, "sched_getaffinity", None)
        try:
            original = getaffinity(0) if getaffinity is not None else None
        except OSError:  # pragma: no cover - exotic kernels
            original = None
        if original is None:
            self.array[:] = data
            return
        try:
            for domain, (lo, hi) in enumerate(
                placement.domain_blocks(data.shape[0])
            ):
                if lo >= hi:
                    continue
                pin_to(placement.topology.numa_domains[domain])
                self.array[lo:hi] = data[lo:hi]
        finally:
            try:
                os.sched_setaffinity(0, original)
            except OSError:  # pragma: no cover - affinity revoked mid-copy
                pass

    def close(self) -> None:
        self.array = None
        try:
            self._shm.close()
        finally:
            # Unlink even when the local unmap fails: the segment outliving
            # the run (a /dev/shm leak) is strictly worse than a dangling
            # mapping in a process that is about to exit.
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


def _attach_shared(spec) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a :class:`SharedMatrix` segment from a worker process."""
    name, shape, dtype = spec
    shm = shared_memory.SharedMemory(name=name)
    # Workers and driver share one resource-tracker process (the tracker fd
    # is inherited), and its name cache is a set — the workers' attach-time
    # registrations collapse into the driver's own, and the driver's unlink
    # on close() is the single cleanup point.  No per-worker unregister.
    return shm, np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


# -- worker side -----------------------------------------------------------


def _install_kernel_settings(parallel, chunk_elements) -> tuple:
    """Point this process's split kernels at the configured backend, chunk
    size and shared score cache — the same call in a pool worker and in an
    in-process executor, so no tier can drift from ``config.parallel``.

    Returns the displaced ``(chunk_elements, backend)`` for restoring.  The
    score cache is one bounded store per process and is never uninstalled:
    it outlives jobs for as long as the process does, so a service reusing
    a pool (or running in-process) serves repeat nodes from memory.
    """
    previous = (
        kernel_mod.set_chunk_elements(chunk_elements),
        kernel_mod.set_kernel_backend(parallel.kernel_backend),
    )
    if parallel.score_cache_bytes > 0:
        kernel_mod.ensure_shared_score_cache(parallel.score_cache_bytes)
    return previous


def _executor_init(
    matrix_spec,
    parents,
    config,
    seed,
    checkpoint_dir,
    counter,
    flush_barrier=None,
    placement=None,
    kernel_chunk_elements=None,
    steal_shared=None,
):
    """Pool initializer: attach the matrix once, install the worker's task
    context (:data:`repro.parallel.tasks._WORKER`).

    ``counter`` is a shared ``mp.Value`` bumped once per initialized worker;
    tests read it to assert the matrix was shipped exactly once per worker
    (i.e. the initializer ran once, never per task), and the driver reads
    it mid-run to detect dead workers — the pool re-runs the initializer
    for every replacement it spawns.  The pre-increment value doubles as
    this worker's index into the ``placement`` plan (``mp.Pool`` hands
    every worker identical initargs, so the index must be derived from
    shared state): the worker pins itself to its assigned NUMA domain's
    CPU set and remembers the domain for per-domain busy accounting.
    Replacement workers draw indices past the plan and wrap onto it.

    ``kernel_chunk_elements`` installs the topology-derived default for
    :class:`repro.scoring.kernel.LazySplitKernel` evaluation chunks in
    this worker process; with a placement plan the worker derives its
    *own domain's* chunk size instead (``Placement.chunk_elements``) so
    heterogeneous machines size each worker's temporaries for the caches
    it actually runs on — identical to the machine-wide value on any
    single-domain topology.  Neither pinning nor chunk sizing can change
    any score — see :mod:`repro.parallel.topology`.

    ``steal_shared`` is the domain-affine queue scaffolding
    ``(queues, pending, lock)`` created by the executor when stealing is
    possible (see :meth:`TaskPoolExecutor.submit_runs`); ``None`` on flat
    machines, which therefore take the exact shared-queue code path.

    With a checkpoint directory, each worker also starts an
    :class:`AsyncCheckpointWriter` so checkpoint serialization never stalls
    task execution; ``flush_barrier`` is the shared barrier the executor's
    close-time flush rendezvous uses (see :func:`_checkpoint_flush_run`).
    """
    worker_index = 0
    if counter is not None:
        with counter.get_lock():
            worker_index = int(counter.value)
            counter.value += 1
    domain = 0
    if placement is not None:
        domain = placement.domain_of(worker_index)
        pin_to(placement.worker_cpus(worker_index))
        kernel_chunk_elements = placement.chunk_elements(worker_index)
    _install_kernel_settings(config.parallel, kernel_chunk_elements)
    shm, data = _attach_shared(matrix_spec)
    writer = AsyncCheckpointWriter() if checkpoint_dir is not None else None
    _WORKER.update(
        build_ctx(data, parents, config, seed, checkpoint_dir, writer),
        domain=domain,
        steal=steal_shared,
        shm=shm,  # keep the mapping alive for the worker's lifetime
        flush_barrier=flush_barrier,
    )


def _checkpoint_flush_run(barrier_timeout: float):
    """Drain this worker's checkpoint writer (close-time rendezvous).

    The executor dispatches exactly ``n_workers`` of these before tearing
    the pool down.  The barrier makes each worker take exactly one: a
    worker that finished its flush blocks on the barrier and therefore
    cannot steal a second flush task from a sibling, so every worker's
    queue is drained before ``terminate`` kills the processes.  A broken
    barrier (dead sibling) aborts the wait rather than hanging — that
    worker's own queue is already drained, which is all it can guarantee.
    """
    writer = _WORKER.get("checkpoint_writer")
    if writer is not None:
        writer.flush()
    barrier = _WORKER.get("flush_barrier")
    if barrier is not None:
        try:
            barrier.wait(timeout=barrier_timeout)
        except Exception:  # BrokenBarrierError: a sibling died or timed out
            pass
    return os.getpid()


def _generic_run(payload):
    """Pool entry point of :meth:`TaskPoolExecutor.submit_runs`.

    Runs ``fn(ctx, item)`` and ships back the item's dispatch index (so
    the driver reassembles results in item order whatever the completion
    order), the worker pid, the worker's NUMA domain, the task's wall
    time and this process's drained kernel-counter delta (``None`` when
    the task scored nothing).
    """
    fn, index, item = payload
    t0 = time.perf_counter()
    result = fn(_WORKER, item)
    return (
        index,
        result,
        os.getpid(),
        _WORKER["domain"],
        time.perf_counter() - t0,
        kernel_mod.consume_kernel_totals(),
    )


def _steal_run(queue_timeout):
    """Pool entry point of the domain-affine steal dispatch.

    The driver enqueues every work item on its home domain's queue before
    dispatching one of these lightweight triggers per item; each trigger
    *reserves* exactly one item under the shared lock — from this worker's
    home domain while its ``pending`` count is positive, otherwise from
    the most-loaded foreign domain (a steal) — then drains the reserved
    payload from that domain's queue and runs it.  Reservation counts
    guarantee a queue is never over-drained, so any worker can empty any
    domain's queue: a victim domain whose worker died is drained by its
    siblings rather than deadlocking.

    Returns ``(index, result, pid, worker_domain, item_home_domain,
    stolen, seconds, kernel_totals)``; ``None`` when every reservation is already taken —
    only possible after a sibling crashed between reserving and returning,
    in which case the driver's crash polling raises
    :class:`WorkerCrashedError` anyway.
    """
    queues, pending, lock = _WORKER["steal"]
    my_domain = _WORKER["domain"]
    with lock:
        if pending[my_domain] > 0:
            domain = my_domain
        else:
            domain, best = -1, 0
            for d in range(len(queues)):
                if pending[d] > best:
                    domain, best = d, pending[d]
            if domain < 0:
                return None
        pending[domain] -= 1
    fn, index, item, home = queues[domain].get(timeout=queue_timeout)
    t0 = time.perf_counter()
    result = fn(_WORKER, item)
    return (
        index,
        result,
        os.getpid(),
        my_domain,
        home,
        domain != my_domain,
        time.perf_counter() - t0,
        kernel_mod.consume_kernel_totals(),
    )


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


# -- statistics -------------------------------------------------------------


@dataclass
class ExecutorStats:
    """Observable behaviour of one executor (asserted by tests)."""

    pools_constructed: int = 0
    matrix_transfers: int = 0
    tasks_dispatched: int = 0
    mode: str = ""
    n_workers: int = 1
    #: cross-domain steals: tasks an idle worker drained from a foreign
    #: NUMA domain's affine queue (always 0 on flat machines)
    steals: int = 0
    #: busy seconds spent on stolen tasks
    stolen_seconds: float = 0.0


# -- the executor -----------------------------------------------------------


class TaskPoolExecutor:
    """Runs the pipeline's tasks on this host: in-process at one worker, on
    a persistent worker pool above.

    Usage (normally through :func:`open_executor`)::

        with open_executor(data, config, seed) as executor:
            samples = executor.sample_ganesh_runs(n_runs, trace=trace)
            modules = executor.learn_modules(modules_members, trace=trace)

    Worker count, schedule, steal policy and topology all come from
    ``config.parallel``.  The pool and the shared expression matrix are
    created lazily on the first parallel dispatch and live until
    :meth:`close` (or context exit), however many task phases or scoring
    calls ride them — one ``learn`` invocation pays for one pool
    construction and one matrix transfer total, across Tasks 1 and 3.

    :meth:`submit_runs` is the generic dispatch primitive the task-specific
    entry points are built on; external callers (e.g. the pooled GENOMICA
    network build) use it directly.
    """

    #: test hook: a callable permuting the dispatch order of
    #: :meth:`submit_runs` (``hook(indices) -> indices``).  Results are
    #: reassembled by item index, so any permutation — and any completion
    #: order it induces — must leave outputs bit-identical; the equivalence
    #: tests shuffle dispatch through this to prove it.
    dispatch_order_hook = None

    def __init__(
        self,
        data: np.ndarray,
        parents: np.ndarray,
        config: LearnerConfig,
        seed: int,
        *,
        checkpoint_dir=None,
        mp_context: str | None = None,
        crash_poll_seconds: float | None = None,
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.config = config
        self.seed = seed
        self.n_workers = config.resolve_n_workers()
        self.schedule = config.parallel.schedule
        self.steal = config.parallel.steal
        self.checkpoint_dir = (
            checkpoint_dir
            if checkpoint_dir is not None
            else config.parallel.checkpoint_dir
        )
        #: how often a blocked dispatch checks for dead workers
        self.crash_poll_seconds = (
            5.0 if crash_poll_seconds is None else float(crash_poll_seconds)
        )
        #: the machine model and worker->domain plan this executor runs
        #: under; placement decides where work executes, never its results
        self.topology = config.parallel.resolve_topology()
        self.placement = plan_placement(self.topology, max(1, self.n_workers))
        #: topology-derived kernel evaluation chunk size, installed in
        #: every worker (or in this process when running in-process) via
        #: the scoring kernel's process-wide default
        self.kernel_chunk_elements = chunk_elements_for(self.topology)
        self.stats = ExecutorStats(n_workers=self.n_workers)
        self._mp_context = mp_context
        self._pool = None
        self._shared: SharedMatrix | None = None
        self._init_counter = None
        self._expected_inits = 0
        #: in-process task context (``n_workers == 1``) and the process-wide
        #: kernel settings (chunk size, backend) it displaced
        self._ctx: dict | None = None
        self._prev_kernel: tuple = ()
        self._flush_barrier = None
        self._flush_timeout = 30.0
        #: (queues, pending, lock) domain-affine steal scaffolding; created
        #: with the pool when stealing is possible, None on flat machines
        self._steal_shared = None
        self._steal_queue_timeout = 60.0

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "TaskPoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Tear down the pool and unlink the shared-memory segment.

        Ordered so the segment is always unlinked: a failure while
        terminating the pool (or a pool poisoned by a crashed worker) must
        not leak the matrix into ``/dev/shm`` — every learner entry point
        runs through here on every exception path.  An in-process executor
        drops its matrix reference and restores the process-wide kernel
        settings it displaced.
        """
        pool, self._pool = self._pool, None
        shared, self._shared = self._shared, None
        steal_shared, self._steal_shared = self._steal_shared, None
        try:
            if pool is not None:
                self._drain_checkpoint_writers(pool)
                pool.terminate()
                pool.join()
        finally:
            if steal_shared is not None:
                # Stranded payloads (a crashed dispatch) must not keep the
                # queue feeder threads alive past the executor.
                for queue in steal_shared[0]:
                    queue.cancel_join_thread()
                    queue.close()
            if shared is not None:
                shared.close()
            if self._ctx is not None:
                self._ctx = None
                chunk_elements, backend = self._prev_kernel
                kernel_mod.set_chunk_elements(chunk_elements)
                kernel_mod.set_kernel_backend(backend)

    def _drain_checkpoint_writers(self, pool) -> None:
        """Flush every worker's async checkpoint writer before teardown.

        ``terminate`` kills workers abruptly; without this rendezvous a
        checkpoint still sitting on a writer queue would be silently lost
        (never torn — the atomic rename sees to that — but the resume
        guarantee of "at most in-flight units recomputed" would quietly
        weaken).  Exactly ``n_workers`` flush tasks are dispatched and a
        shared barrier forces one onto each worker.  Best-effort: a pool
        poisoned by a crashed worker must still reach ``terminate``.
        """
        if self.checkpoint_dir is None or self._flush_barrier is None:
            return
        try:
            handle = pool.map_async(
                _checkpoint_flush_run,
                [self._flush_timeout] * self.n_workers,
                chunksize=1,
            )
            handle.get(timeout=self._flush_timeout + 5.0)
        except Exception:  # pragma: no cover - crashed/hung worker path
            pass

    def worker_inits(self) -> int:
        """How many worker initializations ran (== workers when the matrix
        was shipped exactly once per worker)."""
        if self._init_counter is None:
            return 0
        return int(self._init_counter.value)

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool worker processes (empty before the pool
        is built, always when running in-process).  Exposed so the service can
        report — and failure-injection tests can target — the processes
        actually executing a job."""
        pool = self._pool
        if pool is None:
            return []
        return [proc.pid for proc in getattr(pool, "_pool", []) if proc.pid]

    def _ensure_pool(self):
        """Create the shared matrix and the pool once, on first dispatch."""
        if self._pool is None:
            ctx = poolutil.pool_context(self._mp_context)
            self._shared = SharedMatrix(self.data, placement=self.placement)
            self._init_counter = ctx.Value("i", 0)
            poolutil.note_pool_construction()
            poolutil.note_matrix_transfer()
            self.stats.pools_constructed += 1
            self.stats.matrix_transfers += 1
            self._flush_barrier = (
                ctx.Barrier(self.n_workers)
                if self.checkpoint_dir is not None
                else None
            )
            if self._steal_possible():
                n_domains = self.placement.topology.n_domains
                self._steal_shared = (
                    [ctx.Queue() for _ in range(n_domains)],
                    ctx.Array("l", n_domains, lock=False),  # guarded by the lock
                    ctx.Lock(),
                )
            self._pool = ctx.Pool(
                self.n_workers,
                initializer=_executor_init,
                initargs=(
                    self._shared.spec,
                    self.parents,
                    self.config,
                    self.seed,
                    self.checkpoint_dir,
                    self._init_counter,
                    self._flush_barrier,
                    self.placement,
                    self.kernel_chunk_elements,
                    self._steal_shared,
                ),
            )
            self._expected_inits = self.n_workers
        return self._pool

    def _steal_possible(self) -> bool:
        """Whether any dispatch of this executor may use domain-affine
        queues — multiple workers on multiple NUMA domains with the steal
        knob on.  Flat machines never qualify, so they build none of the
        steal scaffolding and every dispatch takes the exact shared-queue
        code path."""
        return (
            self.steal
            and self.n_workers > 1
            and self.placement.topology.n_domains > 1
        )

    def _local_ctx(self) -> dict:
        """The task context for in-process execution (``n_workers == 1``).

        Built on first use, together with the kernel settings a pool worker
        gets from :func:`_executor_init`; the displaced backend and chunk
        size are restored by :meth:`close`.
        """
        if self._ctx is None:
            self._prev_kernel = _install_kernel_settings(
                self.config.parallel, self.kernel_chunk_elements
            )
            self._ctx = build_ctx(
                self.data, self.parents, self.config, self.seed, self.checkpoint_dir
            )
        return self._ctx

    # -- generic dispatch ---------------------------------------------------
    def submit_runs(
        self,
        fn,
        items,
        *,
        schedule: str | None = None,
        chunksize: int | None = None,
        trace=None,
        home_domains=None,
    ):
        """Run ``fn(ctx, item)`` for every item on the persistent pool.

        The generic task-pool path: ``fn`` must be a picklable module-level
        callable; ``ctx`` supplies the worker's zero-copy view of the
        expression matrix plus parents/config/seed/checkpoint store.  The
        returned list is aligned with ``items`` regardless of dispatch
        permutation (see :attr:`dispatch_order_hook`) or completion order.

        ``schedule`` defaults to the executor's: ``dynamic`` pulls items
        one at a time from a shared queue (``imap_unordered``), ``static``
        maps contiguous equal-count chunks.  With the steal knob on and a
        multi-domain placement, dynamic dispatch instead feeds each NUMA
        domain its own affine queue (items land on their home domain, in
        dispatch order) and idle workers steal from the most-loaded
        foreign domain; ``home_domains`` optionally names each item's home
        domain (aligned with ``items``), defaulting to a balanced spread
        over the worker plan.  Steals are recorded in ``trace``
        (``worker_steals`` / ``worker_stolen_seconds`` / per-domain
        locality) and :attr:`stats`.  Stealing only moves work between
        workers — results are bit-identical because they are reassembled
        by item index.

        Worker busy seconds land in ``trace.worker_times`` when a trace is
        given.  A worker process dying mid-run raises
        :class:`WorkerCrashedError`; an exception *raised* by ``fn``
        propagates as itself.
        """
        items = list(items)
        if not items:
            return []
        schedule = schedule or self.schedule
        order = list(range(len(items)))
        if self.dispatch_order_hook is not None:
            order = list(self.dispatch_order_hook(order))
        results: list = [None] * len(items)

        if self.n_workers <= 1:
            ctx = self._local_ctx()
            for index in order:
                results[index] = fn(ctx, items[index])
            if trace is not None:
                trace.mark_kernel(kernel_mod.consume_kernel_totals())
            return results

        pool = self._ensure_pool()
        if schedule == "dynamic" and self._steal_shared is not None:
            raw = self._dispatch_steal(pool, fn, order, items, home_domains)
            self.stats.tasks_dispatched += len(order)
            self._reduce_steal_results(raw, results, trace)
            return results

        busy: dict[int, float] = {}
        domain_busy: dict[int, float] = {}
        payloads = [(fn, index, items[index]) for index in order]
        if schedule == "static":
            cs = chunksize or max(1, math.ceil(len(payloads) / self.n_workers))
            handle = pool.map_async(_generic_run, payloads, chunksize=cs)
            raw = self._await_crash_aware(handle)
        else:
            it = pool.imap_unordered(_generic_run, payloads, chunksize or 1)
            raw = self._collect_crash_aware(it, len(payloads))
        self.stats.tasks_dispatched += len(payloads)
        for index, result, pid, domain, secs, kernel_totals in raw:
            results[index] = result
            busy[pid] = busy.get(pid, 0.0) + secs
            domain_busy[domain] = domain_busy.get(domain, 0.0) + secs
            if trace is not None:
                trace.mark_kernel(kernel_totals)
        if trace is not None:
            self._record_worker_times(trace, busy, domain_busy)
        return results

    # -- domain-affine steal dispatch ---------------------------------------
    def _dispatch_steal(self, pool, fn, order, items, home_domains):
        """Enqueue items on their home domains' queues, trigger the pool.

        Every item is enqueued before any trigger dispatches, and the
        shared ``pending`` counts advance under the lock only after the
        payloads are queued — a trigger therefore always finds the payload
        it reserved.  One trigger per item keeps the crash accounting of
        the shared-queue path: a worker dying mid-task strands exactly its
        reserved items, the result iterator stops short, and the standard
        init-counter polling raises :class:`WorkerCrashedError`.
        """
        queues, pending, lock = self._steal_shared
        counts = [0] * len(queues)
        if home_domains is None:
            spread = self.placement.spread_domains(len(order))
            homes = {index: spread[pos] for pos, index in enumerate(order)}
        else:
            homes = {index: int(home_domains[index]) for index in order}
        for index in order:
            domain = homes[index]
            queues[domain].put((fn, index, items[index], domain))
            counts[domain] += 1
        with lock:
            for domain, count in enumerate(counts):
                pending[domain] += count
        it = pool.imap_unordered(
            _steal_run, [self._steal_queue_timeout] * len(order), chunksize=1
        )
        try:
            return self._collect_steal_aware(it, len(order))
        except WorkerCrashedError:
            self._reset_steal()
            raise

    def _collect_steal_aware(self, it, n_expected: int) -> list:
        """Crash-aware collection of steal-trigger results.

        ``None`` results mark triggers that found every reservation taken
        (a sibling reserved an item and died before returning it); they
        never add up to ``n_expected``, so the exhausted iterator — or the
        init-counter overshoot the timeout polling sees first — surfaces
        the crash instead of a hang.
        """
        out: list = []
        seen = 0
        while len(out) < n_expected:
            if seen >= n_expected:
                raise WorkerCrashedError(
                    "steal dispatch lost work items to a crashed worker; "
                    "completed checkpoints remain valid — re-run to resume"
                )
            try:
                result = it.next(timeout=self.crash_poll_seconds)
            except _MpTimeoutError:
                self._check_workers_alive()
                continue
            seen += 1
            if result is not None:
                out.append(result)
        return out

    def _reset_steal(self) -> None:
        """Drain stranded payloads after a crashed steal dispatch.

        Restores the queues/pending invariant (both empty) so a retry on
        the same executor starts clean rather than reserving ghosts.
        """
        import queue as queue_mod

        queues, pending, lock = self._steal_shared
        with lock:
            for domain in range(len(queues)):
                pending[domain] = 0
        for q in queues:
            while True:
                try:
                    q.get_nowait()
                except (queue_mod.Empty, OSError, ValueError):
                    break

    def _reduce_steal_results(self, raw, results, trace) -> None:
        busy: dict[int, float] = {}
        domain_busy: dict[int, float] = {}
        steals: dict[int, int] = {}
        stolen_secs: dict[int, float] = {}
        local_by_domain: dict[int, float] = {}
        stolen_by_domain: dict[int, float] = {}
        for index, result, pid, domain, home, stolen, secs, kernel_totals in raw:
            results[index] = result
            busy[pid] = busy.get(pid, 0.0) + secs
            domain_busy[domain] = domain_busy.get(domain, 0.0) + secs
            if trace is not None:
                trace.mark_kernel(kernel_totals)
            if stolen:
                steals[pid] = steals.get(pid, 0) + 1
                stolen_secs[pid] = stolen_secs.get(pid, 0.0) + secs
                stolen_by_domain[home] = stolen_by_domain.get(home, 0.0) + secs
                self.stats.steals += 1
                self.stats.stolen_seconds += secs
            else:
                local_by_domain[home] = local_by_domain.get(home, 0.0) + secs
        if trace is not None:
            self._record_worker_times(
                trace,
                busy,
                domain_busy,
                steals=steals,
                stolen_secs=stolen_secs,
                local_by_domain=local_by_domain,
                stolen_by_domain=stolen_by_domain,
            )

    def _check_workers_alive(self) -> None:
        """Raise if the pool replaced a dead worker since the last check.

        The initializer counter only ever advances past ``n_workers`` when
        ``mp.Pool`` re-ran it for a replacement worker — i.e. an original
        worker exited abnormally and its in-flight task is lost for good.
        """
        if self._init_counter is not None and self.worker_inits() > self._expected_inits:
            raise WorkerCrashedError(
                f"{self.worker_inits() - self._expected_inits} pool worker(s) "
                "died mid-run; completed checkpoints remain valid — re-run to "
                "resume from them"
            )

    def _collect_crash_aware(self, it, n_expected: int) -> list:
        out = []
        while len(out) < n_expected:
            try:
                out.append(it.next(timeout=self.crash_poll_seconds))
            except _MpTimeoutError:
                self._check_workers_alive()
        return out

    def _await_crash_aware(self, handle) -> list:
        while True:
            try:
                return handle.get(timeout=self.crash_poll_seconds)
            except _MpTimeoutError:
                self._check_workers_alive()

    # -- task 1: the G GaneSH co-clustering runs ---------------------------
    def sample_ganesh_runs(self, n_runs: int, trace=None) -> list[np.ndarray]:
        """Task 1: the G chains, concurrently above one worker, resumable.

        Runs already checkpointed as ``ganesh_<g>.npz`` are loaded instead
        of re-executed; the rest dispatch through :meth:`submit_runs`
        (dynamic pulling — chain run-times vary stochastically).  The
        returned ensemble is the same for any worker count because run
        ``g`` consumes only its replicated ``("ganesh", g)`` stream.
        """
        checkpoints = _GaneshCheckpoints(
            self.checkpoint_dir, self.seed, self.config, self.data.shape[0]
        )
        samples: dict[int, np.ndarray] = {}
        pending: list[int] = []
        for g in range(n_runs):
            labels = checkpoints.load(g)
            if labels is None:
                pending.append(g)
            else:
                samples[g] = labels
        if pending:
            results = self.submit_runs(
                _ganesh_run,
                [(g, trace is not None) for g in pending],
                schedule="dynamic",
                trace=trace,
            )
            # Merge per-run step records in ascending run order so the trace
            # is deterministic whatever the completion order was.
            for g, labels, steps in sorted(results, key=lambda r: r[0]):
                samples[g] = labels
                if trace is not None:
                    trace.steps.extend(steps)
        return [samples[g] for g in range(n_runs)]

    # -- fine-grained scoring (the inner level) ----------------------------
    def score_splits(self, node_records, trace=None):
        """Score a flat candidate-split list (Algorithm 5's decomposition).

        ``node_records`` are ``(module_id, obs, left_obs, module_obs_base)``
        in enumeration order (see :func:`repro.parallel.tasks.tree_phase`).
        ``schedule="static"`` cuts the list into one contiguous block per
        worker, ``"dynamic"`` into ~4 per worker pulled from a queue — the
        paper's Section 6 ablation.  Returns flat ``(log_scores, steps,
        accepted)`` arrays, bit-identical to in-process scoring however the
        list is cut: each split's draws are addressed by its index.
        """
        tasks, total = build_split_tasks(node_records, len(self.parents))
        log_scores = np.zeros(total, dtype=np.float64)
        steps = np.zeros(total, dtype=np.int64)
        accepted = np.zeros(total, dtype=bool)

        home_domains = None
        if self.n_workers <= 1 or total == 0:
            work_items, chunksize = tasks, None
        elif self.schedule == "static":
            # One chunk per worker, nested inside NUMA-domain blocks so a
            # chunk's output region lies in the shared pages its domain
            # first-touched (degenerates to plain block_bounds when flat).
            work_items = _subdivide(
                tasks, total, self.n_workers,
                bounds=self.placement.chunk_bounds(total),
            )
            chunksize = max(1, len(work_items) // self.n_workers)
        else:
            work_items = _subdivide(
                tasks, total, 4 * self.n_workers,
                bounds=self.placement.chunk_bounds(total, 4),
            )
            chunksize = 1
            if self._steal_possible():
                # Each chunk's home is the domain whose contiguous block of
                # the flat split range (the first-touched pages) holds it.
                home_domains = self._range_homes(
                    [
                        (t.out_offset, t.out_offset + (t.row1 - t.row0))
                        for t in work_items
                    ],
                    total,
                )
        results = self.submit_runs(
            _score_chunk_run,
            work_items,
            chunksize=chunksize,
            trace=trace,
            home_domains=home_domains,
        )

        for offset, sc, st, ac in results:
            log_scores[offset : offset + sc.size] = sc
            steps[offset : offset + st.size] = st
            accepted[offset : offset + ac.size] = ac
        return log_scores, steps, accepted

    def _range_homes(self, ranges, total: int) -> list[int]:
        """Home domain per ``[lo, hi)`` range of a flat work index: the
        domain whose contiguous block contains the range midpoint (the
        same rule as ``placement_lpt_schedule`` / ``placement_steal_schedule``)."""
        blocks = self.placement.domain_blocks(total)
        homes: list[int] = []
        for lo, hi in ranges:
            mid = (lo + hi) // 2
            homes.append(
                next((d for d, (a, b) in enumerate(blocks) if a <= mid < b), 0)
            )
        return homes

    def _record_worker_times(
        self,
        trace,
        busy: dict[int, float],
        domain_busy: dict[int, float] | None = None,
        steals: dict[int, int] | None = None,
        stolen_secs: dict[int, float] | None = None,
        local_by_domain: dict[int, float] | None = None,
        stolen_by_domain: dict[int, float] | None = None,
    ) -> None:
        for index, pid in enumerate(sorted(busy)):
            trace.mark_worker_time(f"worker-{index}", busy[pid])
            if steals and pid in steals:
                trace.mark_steal(
                    f"worker-{index}",
                    steals[pid],
                    (stolen_secs or {}).get(pid, 0.0),
                )
        for domain in sorted(domain_busy or ()):
            trace.mark_domain_time(f"node{domain}", domain_busy[domain])
        for domain in sorted(local_by_domain or ()):
            trace.mark_domain_locality(
                f"node{domain}", local_by_domain[domain], stolen=False
            )
        for domain in sorted(stolen_by_domain or ()):
            trace.mark_domain_locality(
                f"node{domain}", stolen_by_domain[domain], stolen=True
            )
        if trace.topology is None:
            trace.topology = self.placement.describe()

    # -- module learning (the outer level) ---------------------------------
    def learn_modules(self, modules_members, trace=None) -> list[Module]:
        """Learn every module, resuming from checkpoints where present."""
        checkpoints = _ModuleCheckpoints(self.checkpoint_dir, self.seed, self.config)
        modules: dict[int, Module] = {}
        pending: list[tuple[int, list[int]]] = []
        for module_id, members in enumerate(modules_members):
            module = checkpoints.load(module_id, members)
            if module is None:
                pending.append((module_id, list(members)))
            else:
                modules[module_id] = module

        n_obs = self.data.shape[1]
        self.stats.mode = choose_mode(
            [estimate_module_cost(m, n_obs, self.config) for _, m in pending],
            self.n_workers,
        )
        if not pending:
            pass
        elif self.stats.mode == "module":
            self._learn_modules_coarse(pending, modules, trace)
        else:
            self._learn_modules_fine(pending, modules, checkpoints, trace)
        return [modules[module_id] for module_id in range(len(modules_members))]

    def _learn_modules_coarse(self, pending, modules, trace) -> None:
        """Module-level parallelism: whole modules as tasks.

        Whoever runs a module checkpoints it (the task context carries the
        store), so an interruption loses at most the modules currently in
        flight, on one worker or many.
        """
        n_obs = self.data.shape[1]
        items = [
            (module_id, members, trace is not None)
            for module_id, members in pending
        ]
        if self.schedule == "dynamic":
            # Largest-module-first dispatch: greedy LPT via a shared queue
            # (per-domain LPT order once partitioned onto affine queues).
            items.sort(
                key=lambda item: (
                    -estimate_module_cost(item[1], n_obs, self.config),
                    item[0],
                )
            )
        home_domains = None
        if self.schedule == "dynamic" and self._steal_possible():
            # A module's home is the domain whose block of the matrix rows
            # (the pages it first-touched) holds the module's median member.
            n_vars = self.data.shape[0]
            home_domains = self._range_homes(
                [
                    (int(np.median(members)), int(np.median(members)) + 1)
                    for _, members, _ in items
                ],
                n_vars,
            )
        results = self.submit_runs(
            _module_run, items, trace=trace, home_domains=home_domains
        )

        for module_id, module, steps in sorted(results):
            modules[module_id] = module
            if trace is not None:
                trace.steps.extend(steps)

    def _learn_modules_fine(self, pending, modules, checkpoints, trace) -> None:
        """Split-level parallelism: driver-side trees, pooled flat scoring.

        Phase A builds every pending module's trees in the driver (each on
        its own module stream); phase B scores the concatenated candidate-
        split list of *all* modules in one pooled pass; phase C replays the
        sequential selection per module.  One flat list across modules is
        exactly the paper's load-balance argument for Algorithm 5.
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
            checkpoints.store(module)
            modules[module_id] = module



# -- the factory ---------------------------------------------------------------


def open_executor(
    data: np.ndarray,
    config: LearnerConfig,
    seed: int,
    checkpoint_dir=None,
    *,
    mp_context: str | None = None,
    crash_poll_seconds: float | None = None,
):
    """The executor ``config.parallel`` asks for — the one dispatch seam.

    ``n_nodes > 1`` gives the shard tier (each node running its own
    :class:`TaskPoolExecutor`), otherwise a single-host
    :class:`TaskPoolExecutor` — in-process at one worker, pooled above.
    Both offer ``sample_ganesh_runs`` / ``learn_modules`` / ``stats`` /
    ``worker_inits`` and are context managers; the caller closes what it
    opens.  ``mp_context`` and ``crash_poll_seconds`` reach the local pool
    only (callers living in a multi-threaded process pass ``"spawn"``).
    """
    parents = np.asarray(
        config.resolve_candidate_parents(data.shape[0]), dtype=np.int64
    )
    if config.parallel.n_nodes > 1:
        from repro.parallel.sharding import ShardedExecutor

        return ShardedExecutor(
            data, parents, config, seed, checkpoint_dir=checkpoint_dir
        )
    return TaskPoolExecutor(
        data,
        parents,
        config,
        seed,
        checkpoint_dir=checkpoint_dir,
        mp_context=mp_context,
        crash_poll_seconds=crash_poll_seconds,
    )
