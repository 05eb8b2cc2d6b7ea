"""The single-host transports: how an ordered item list reaches a process.

The scheduler (:mod:`repro.parallel.executor`) decides *what* runs and in
what order; a :class:`Transport` only carries ``fn(ctx, item)`` calls to
wherever they execute and brings back one **completion record** per item::

    (index, result, node, worker, seconds, kernel_totals)

``index`` is the scheduler's item index (opaque here), ``node`` the shard
node (``None`` on one host), ``worker`` the executing process's *stable*
index (one process, one index, for the executor's lifetime), ``seconds``
the task's wall time and ``kernel_totals`` the split-kernel counters the
task context's scorer (``ctx["scorer"]``) drained after the task: the
item's own scoring work, nothing else the process ran.

Here: :class:`InProcessTransport` (one worker — this *is* the sequential
learner) and :class:`PoolTransport` (persistent worker children over one
shared-memory copy of the matrix, driven by the tier's one child
mechanism, :class:`repro.parallel.poolutil.ChildGroup`; a dead worker
surfaces as :class:`WorkerCrashedError` at once, never a hang).  Shard
nodes, the third, live in :mod:`repro.parallel.sharding`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import LearnerConfig
from repro.parallel.poolutil import ChildGroup, WorkerCrashedError
from repro.parallel.tasks import build_ctx
from repro.parallel.topology import probe_topology


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
    """Run ``fn(ctx, item)`` and build its completion record, draining the
    context's scorer into it."""
    t0 = time.perf_counter()
    result = fn(ctx, item)
    return (
        index,
        result,
        None,
        ctx["worker"],
        time.perf_counter() - t0,
        ctx["scorer"].drain_counters(),
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
            trace.topology = dict(probe_topology().describe(), n_workers=self.n_workers)


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
        from multiprocessing import shared_memory  # only a pool needs it

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


def _attach_shared(spec) -> tuple:
    """Attach to a :class:`SharedMatrix` segment from a worker process:
    ``(segment, array)``."""
    from multiprocessing import shared_memory

    name, shape, dtype = spec
    shm = shared_memory.SharedMemory(name=name)
    # Workers and driver share one resource-tracker process (the tracker fd
    # is inherited), and its name cache is a set — the workers' attach-time
    # registrations collapse into the driver's own, and the driver's unlink
    # on close() is the single cleanup point.  No per-worker unregister.
    return shm, np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


# -- the pool transport ------------------------------------------------------


class _WorkerSession:
    """A pool child's state, built from its ``init`` frame: the attached
    matrix and the task context, labelled with the worker index the frame
    came with.  ``checkpoints`` is the driver's store: the worker writes
    each unit it finishes before reporting it."""

    def __init__(self, spec, index: int) -> None:
        self._shm, data = _attach_shared(spec["matrix"])
        self._ctx = dict(
            build_ctx(
                data, spec["parents"], spec["config"], spec["seed"],
                spec["checkpoints"],
            ),
            worker=index,
        )

    def run(self, fn, pairs) -> list:
        return [_run_item(self._ctx, fn, index, item) for index, item in pairs]

    def close(self) -> None:
        # The mapping itself goes with the process: a task's arrays may
        # still view it, and unmapping under them is an error.
        self._ctx = None


class PoolTransport(Transport):
    """Persistent worker children over one shared-memory matrix, both
    created on the first dispatch and alive until :meth:`close` — one
    ``learn`` invocation pays for one pool construction and one matrix
    transfer total, across Tasks 1 and 3.
    """

    def __init__(
        self, data, parents, config, seed, checkpoints,
        mp_context: str | None = None,
    ) -> None:
        super().__init__(
            data, parents, config, seed, checkpoints, config.resolve_n_workers()
        )
        self._children = ChildGroup(
            _WorkerSession, self.n_workers, label="worker",
            error=WorkerCrashedError, mp_context=mp_context,
        )
        self._shared: SharedMatrix | None = None

    def start(self) -> None:
        """Create the shared matrix and the workers once."""
        if self._shared is not None:
            return
        self._shared = SharedMatrix(self.data)
        self.stats.pools_constructed += 1
        self.stats.matrix_transfers += 1
        self._children.start({
            "matrix": self._shared.spec,
            "parents": self.parents,
            "config": self.config,
            "seed": self.seed,
            "checkpoints": self.checkpoints,
        })

    def close(self) -> None:
        """Close and reap the workers, then unlink the shared-memory
        segment — always the latter: a failure while closing must not leak
        the matrix into ``/dev/shm``; every learner entry point runs
        through here on every exception path.  Nothing is dispatched:
        every unit the workers reported is already checkpointed."""
        shared, self._shared = self._shared, None
        try:
            self._children.close()
        finally:
            if shared is not None:
                shared.close()

    def worker_inits(self) -> int:
        """How many workers answered their ``init`` (== workers when the
        matrix was shipped exactly once per worker)."""
        return self._children.inits

    def worker_pids(self) -> list[int]:
        """PIDs of the pool workers (empty before the pool is built).
        Exposed so the service can report — and failure-injection tests
        can target — the processes executing a job."""
        return list(self._children.pids) if self._shared is not None else []

    def run(self, fn, ordered_items, *, schedule, chunksize=None):
        """List-schedule the pairs over the workers: ``dynamic`` hands out
        one item at a time, ``static`` contiguous equal-count chunks."""
        self.start()
        if not chunksize:
            n = len(ordered_items)
            chunksize = math.ceil(n / self.n_workers) if schedule == "static" else 1
        return [
            record
            for _worker, records in self._children.run(fn, ordered_items, chunksize)
            for record in records
        ]


def local_transport(
    data, parents, config: LearnerConfig, seed: int, checkpoints=None,
    mp_context: str | None = None,
) -> Transport:
    """This host's transport: in-process at one worker, the pool above."""
    if config.resolve_n_workers() <= 1:
        return InProcessTransport(data, parents, config, seed, checkpoints)
    return PoolTransport(data, parents, config, seed, checkpoints, mp_context)
