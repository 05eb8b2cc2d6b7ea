"""The single-host transports: how an ordered item list reaches a process.

The scheduler (:mod:`repro.parallel.executor`) decides *what* runs and in
what order; a :class:`Transport` only carries ``fn(ctx, item)`` calls to
wherever they execute and brings back one **completion record** per item::

    (index, result, node, worker, seconds, kernel_totals)

``index`` is the scheduler's item index (opaque here), ``node`` the shard
node (``None`` on one host), ``worker`` the executing process's *stable*
index (one process, one index, for the executor's lifetime), ``seconds``
the task's wall time and ``kernel_totals`` the process's drained
split-kernel counter delta.

Here: :class:`InProcessTransport` (one worker — this *is* the sequential
learner) and :class:`PoolTransport` (one persistent pool over one
shared-memory copy of the matrix; a dead worker surfaces as
:class:`WorkerCrashedError`, never a hang).  Shard nodes, the third, live
in :mod:`repro.parallel.sharding`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from multiprocessing import TimeoutError as _MpTimeoutError
from multiprocessing import shared_memory

import numpy as np

from repro.core.config import LearnerConfig
from repro.parallel import poolutil
from repro.parallel.tasks import _WORKER, build_ctx
from repro.parallel.topology import probe_topology
from repro.scoring import kernel as kernel_mod


class WorkerCrashedError(RuntimeError):
    """A pool worker process died mid-task.

    Raised by :meth:`PoolTransport.run` when the pool replaces a worker
    that exited abnormally (detected via the instrumented initializer
    re-running), instead of waiting forever for the dead worker's lost
    task.  Checkpoints written before the crash remain valid; re-running
    the same call executes only the missing units.
    """


@dataclass
class ExecutorStats:
    """Observable behaviour of one executor (asserted by tests)."""

    pools_constructed: int = 0
    matrix_transfers: int = 0
    tasks_dispatched: int = 0
    mode: str = ""
    n_workers: int = 1
    #: shard nodes behind this executor (1 on one host) and their channel
    #: traffic during dispatches, both directions, summed over nodes
    n_nodes: int = 1
    transfer_bytes: int = 0
    transfer_seconds: float = 0.0


def _run_item(ctx, fn, index, item) -> tuple:
    """Run ``fn(ctx, item)`` and build its completion record."""
    t0 = time.perf_counter()
    result = fn(ctx, item)
    return (
        index,
        result,
        None,
        ctx["worker"],
        time.perf_counter() - t0,
        kernel_mod.consume_kernel_totals(),
    )


class Transport:
    """What every transport carries and the defaults most keep."""

    def __init__(
        self, data, parents, config: LearnerConfig, seed: int, checkpoints,
        n_workers: int,
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.config = config
        self.seed = seed
        #: the driver's :class:`~repro.core.checkpoints.CheckpointStore`
        #: (``None``: nothing is checkpointed), carried to every process
        #: that executes items
        self.checkpoints = checkpoints
        #: every process that executes items, across the whole tier
        self.n_workers = n_workers
        self.stats = ExecutorStats(n_workers=n_workers)

    def start(self) -> None:
        """Bring up whatever executes items (idempotent; ``run`` calls it)."""

    def run(self, fn, ordered_items, *, schedule, chunksize=None):
        """Run ``fn(ctx, item)`` for every ``(index, item)`` pair, starting
        them in the given order; returns the completion records, in any
        order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every process and segment ``start`` took."""

    def worker_inits(self) -> int:
        """How many worker initializations ran."""
        return 0

    def worker_pids(self) -> list[int]:
        """PIDs of the live processes executing items, other than this one."""
        return []

    def annotate(self, trace) -> None:
        """Record what only the transport knows about the last ``run``."""
        if trace.topology is None:
            trace.topology = dict(
                probe_topology().describe(),
                n_workers=self.n_workers,
                kernel_chunk_elements=kernel_mod.configured_chunk_elements(),
            )


class InProcessTransport(Transport):
    """One worker: items run in this process, in the order given."""

    def __init__(self, data, parents, config, seed, checkpoints) -> None:
        super().__init__(data, parents, config, seed, checkpoints, 1)
        #: the task context, built on first use
        self._ctx: dict | None = None

    def run(self, fn, ordered_items, *, schedule=None, chunksize=None):
        if self._ctx is None:
            self._ctx = dict(
                build_ctx(
                    self.data, self.parents, self.config, self.seed,
                    self.checkpoints,
                ),
                worker=0,
            )
        return [
            _run_item(self._ctx, fn, index, item) for index, item in ordered_items
        ]

    def close(self) -> None:
        """Drop the matrix reference."""
        self._ctx = None


# -- shared-memory expression matrix --------------------------------------


class SharedMatrix:
    """The expression matrix in a shared-memory segment.

    Created once per pool; workers attach by name with no copy.  The
    creating process owns the segment and unlinks it on :meth:`close`.
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.float64)
        self._shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
        self.array = np.ndarray(data.shape, dtype=data.dtype, buffer=self._shm.buf)
        self.array[:] = data
        #: everything a worker needs to attach: (name, shape, dtype)
        self.spec = (self._shm.name, data.shape, data.dtype.str)

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


# -- pool worker side --------------------------------------------------------


def _executor_init(
    matrix_spec,
    parents,
    config,
    seed,
    checkpoints,
    counter,
    chunk_elements,
):
    """Pool initializer: attach the matrix once, install the worker's task
    context (:data:`repro.parallel.tasks._WORKER`).

    ``counter`` is a shared ``mp.Value`` bumped once per initialized worker;
    tests read it to assert the matrix was shipped exactly once per worker
    (i.e. the initializer ran once, never per task), and the driver reads
    it mid-run to detect dead workers — the pool re-runs the initializer
    for every replacement it spawns.  The pre-increment value is this
    worker's stable index (``mp.Pool`` hands every worker identical
    initargs, so it must come from shared state): it labels the worker in
    every completion record.

    ``chunk_elements`` is the driver's kernel chunk size
    (:func:`repro.scoring.kernel.configured_chunk_elements`): the machine
    is probed once, in the driver, and every worker — forked or spawned —
    sizes its temporaries by that one number.  ``checkpoints`` is the
    driver's store: the worker writes each unit it finishes before
    reporting it.
    """
    with counter.get_lock():
        worker_index = int(counter.value)
        counter.value += 1
    kernel_mod.set_chunk_elements(chunk_elements)
    shm, data = _attach_shared(matrix_spec)
    _WORKER.update(
        build_ctx(data, parents, config, seed, checkpoints),
        worker=worker_index,
        shm=shm,  # keep the mapping alive for the worker's lifetime
    )


def _pool_run(payload):
    """Pool entry point: one chunk of ``(index, item)`` pairs."""
    fn, pairs = payload
    return [_run_item(_WORKER, fn, index, item) for index, item in pairs]


# -- the pool transport ------------------------------------------------------


class PoolTransport(Transport):
    """A persistent worker pool over one shared-memory matrix, both created
    on the first dispatch and alive until :meth:`close` — one ``learn``
    invocation pays for one pool construction and one matrix transfer
    total, across Tasks 1 and 3.
    """

    def __init__(
        self, data, parents, config, seed, checkpoints,
        mp_context: str | None = None,
        crash_poll_seconds: float | None = None,
    ) -> None:
        super().__init__(
            data, parents, config, seed, checkpoints, config.resolve_n_workers()
        )
        #: how often a blocked dispatch checks for dead workers
        self.crash_poll_seconds = (
            5.0 if crash_poll_seconds is None else float(crash_poll_seconds)
        )
        self._mp_context = mp_context
        self._pool = None
        self._shared: SharedMatrix | None = None
        self._init_counter = None

    def start(self) -> None:
        """Create the shared matrix and the pool once."""
        if self._pool is not None:
            return
        ctx = poolutil.pool_context(self._mp_context)
        self._shared = SharedMatrix(self.data)
        self._init_counter = ctx.Value("i", 0)
        poolutil.note_pool_construction()
        poolutil.note_matrix_transfer()
        self.stats.pools_constructed += 1
        self.stats.matrix_transfers += 1
        self._pool = ctx.Pool(
            self.n_workers,
            initializer=_executor_init,
            initargs=(
                self._shared.spec,
                self.parents,
                self.config,
                self.seed,
                self.checkpoints,
                self._init_counter,
                kernel_mod.configured_chunk_elements(),
            ),
        )

    def close(self) -> None:
        """Tear down the pool and unlink the shared-memory segment — always
        the latter: a failure while terminating must not leak the matrix
        into ``/dev/shm``; every learner entry point runs through here on
        every exception path.  Nothing is dispatched to the workers: every
        unit they reported is already checkpointed, so healthy or not they
        go through :func:`_abandon_pool` — ``terminate()`` under a
        deadline, then SIGKILL — and no close can wedge.
        """
        pool, self._pool = self._pool, None
        shared, self._shared = self._shared, None
        try:
            if pool is not None:
                _abandon_pool(pool)
        finally:
            if shared is not None:
                shared.close()

    def worker_inits(self) -> int:
        """How many worker initializations ran (== workers when the matrix
        was shipped exactly once per worker)."""
        if self._init_counter is None:
            return 0
        return int(self._init_counter.value)

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool worker processes (empty before the pool
        is built).  Exposed so the service can report — and failure-
        injection tests can target — the processes executing a job."""
        pool = self._pool
        if pool is None:
            return []
        return [proc.pid for proc in getattr(pool, "_pool", []) if proc.pid]

    def run(self, fn, ordered_items, *, schedule, chunksize=None):
        """Dispatch onto the pool and collect, crash-aware: ``dynamic``
        pulls items one at a time from the shared queue, ``static`` maps
        contiguous equal-count chunks."""
        self.start()
        n = len(ordered_items)
        if not chunksize:
            chunksize = math.ceil(n / self.n_workers) if schedule == "static" else 1
        payloads = [
            (fn, ordered_items[lo : lo + chunksize]) for lo in range(0, n, chunksize)
        ]
        return self._collect(
            self._pool.imap_unordered(_pool_run, payloads), len(payloads)
        )

    def _collect(self, it, n_chunks: int) -> list:
        """Crash-aware collection of ``n_chunks`` chunks of records.

        Each timeout polls the init counter, which only advances past
        ``n_workers`` when ``mp.Pool`` re-ran the initializer for a
        replacement — an original worker exited abnormally and its
        in-flight task is lost for good.
        """
        out: list = []
        while n_chunks:
            try:
                out.extend(it.next(timeout=self.crash_poll_seconds))
                n_chunks -= 1
            except _MpTimeoutError:
                lost = self.worker_inits() - self.n_workers
                if lost > 0:
                    raise WorkerCrashedError(
                        f"{lost} pool worker(s) died mid-run; completed "
                        "checkpoints remain valid — re-run to resume from them"
                    ) from None
        return out


def _abandon_pool(pool, grace: float = 2.0) -> None:
    """Tear down a pool without trusting its queues.

    ``mp.Pool`` guards its task and result pipes with plain semaphores.  A
    worker killed while it held one (SIGKILLed mid result write, or idle
    inside ``get``; on a healthy pool, ``terminate()``'s own SIGTERM landing
    while a worker writes a result) leaves it locked for good: the
    surviving workers and every replacement park on it, and ``terminate()``
    — which takes the same locks to post its sentinels — never returns.  So
    the cooperative ``terminate()`` runs on a thread this call is prepared
    to abandon (its first act stops the pool respawning workers, wedged or
    not); if it has not finished within ``grace`` seconds the worker
    processes are SIGKILLed and reaped here.
    """
    reaper = threading.Thread(target=pool.terminate, name="pool-reaper", daemon=True)
    reaper.start()
    reaper.join(timeout=grace)
    if not reaper.is_alive():
        pool.join()
        return
    workers = list(pool._pool)
    for proc in workers:
        if proc.exitcode is None:
            proc.kill()
    for proc in workers:
        proc.join(timeout=10.0)


def local_transport(
    data, parents, config: LearnerConfig, seed: int, checkpoints=None,
    mp_context: str | None = None, crash_poll_seconds: float | None = None,
) -> Transport:
    """This host's transport: in-process at one worker, the pool above."""
    if config.resolve_n_workers() <= 1:
        return InProcessTransport(data, parents, config, seed, checkpoints)
    return PoolTransport(
        data, parents, config, seed, checkpoints, mp_context, crash_poll_seconds
    )
