"""Shard nodes: the multi-process-node transport under the scheduler.

The paper's headline experiments run on a 171-node cluster (Section 5,
Figs. 5-6); the transports of :mod:`repro.parallel.transport` are
single-host.  :class:`ShardTransport` carries the scheduler's ordered item
list to N "nodes", each running its *own* local transport (in-process, or
a shared-memory worker pool) and shipping back the completion records of
what it ran.  Every decision above that — what is pending, in which order,
whole modules or the flat split list — is :class:`repro.parallel.executor.
TaskScheduler`'s, the same code that drives one host;
:class:`ShardedExecutor` is that scheduler bound to this transport.
Because every work unit consumes only its named random streams, where a
unit executes — which node, which worker — can never change the learned
network: bit-identity holds for any shard count x worker count.

Each node is a real OS process, a child of the executor tier's one
mechanism (:class:`repro.parallel.poolutil.ChildGroup`): launched by its
start-method rule (fork where available; a fresh interpreter where it is
not, or where the caller's ``mp_context`` says so because it lives in a
multi-threaded process) over one end of a ``socketpair``, and spoken to in
length-prefixed pickle frames.  No port is opened: only the driver holds
the other end.  A node killed mid-run surfaces as :class:`NodeCrashedError`
(the EOF tears the frame); checkpoints the dead run wrote remain valid and
a re-run resumes from them.

The first *traced* dispatch measures echo round-trips over the real
channels and fits the :class:`~repro.parallel.costmodel.MachineModel`
``tau``/``mu`` from them — a trace annotation (``WorkTrace.calibration``)
nothing in the package consumes, so an untraced run never pays for it.

Dispatch is list scheduling over the scheduler's one ordered list: a
driver thread per node pulls the next ``workers_per_node`` items whenever
its node is free.  There is no per-node partition, so there is nothing to
rebalance or steal — a slow node simply pulls less — and the order the
scheduler chose (largest module first) is the order work starts in.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.checkpoints import CheckpointStore
from repro.core.config import LearnerConfig
from repro.parallel.costmodel import calibrate_from_roundtrips
from repro.parallel.executor import TaskScheduler
from repro.parallel.poolutil import ChildGroup, NodeCrashedError, WorkerCrashedError
from repro.parallel.tasks import TASK_RUNNERS
from repro.parallel.transport import Transport, local_transport

#: words (8 bytes each) carried each way by a large calibration echo
CALIBRATION_WORDS = 64 * 1024
#: echo repetitions per node (medians over these resist scheduler jitter)
CALIBRATION_SMALL_ECHOES = 5
CALIBRATION_LARGE_ECHOES = 3


class _NodeSession:
    """One shard node's state, built from its ``init`` frame: a local
    transport (:func:`repro.parallel.transport.local_transport`,
    in-process or a pool of its own) that runs the named runners of
    :data:`repro.parallel.tasks.TASK_RUNNERS` (the wire carries runner
    *names*, never pickled code) and reports its counters with every
    batch's completion records."""

    def __init__(self, spec, node_id: int) -> None:
        self.local = local_transport(
            spec["data"], spec["parents"], spec["config"], spec["seed"],
            spec["checkpoints"],
        )

    def run(self, task_kind: str, pairs) -> dict:
        records = self.local.run(TASK_RUNNERS[task_kind], pairs, schedule="dynamic")
        return {
            "records": records,
            "node": {
                "inits": self.local.worker_inits(),
                "pools": self.local.stats.pools_constructed,
                "transfers": self.local.stats.matrix_transfers,
                "pids": self.local.worker_pids(),
            },
        }

    def close(self) -> None:
        self.local.close()


def _remote_error(node: int, exc: BaseException) -> BaseException:
    """What a task failure a node shipped back raises in the driver: the
    tier's crash types keep theirs (the service's crash isolation needs
    them), anything else is a ``RuntimeError`` naming it."""
    cls = type(exc) if isinstance(exc, (WorkerCrashedError, NodeCrashedError)) else RuntimeError
    return cls(f"shard node {node} task failed: {type(exc).__name__}: {exc}")


# -- the shard transport -----------------------------------------------------


class ShardTransport(Transport):
    """Carry an ordered item list to N shard nodes (driver side).  The
    nodes write new checkpoints as units complete and the scheduler
    preloads finished ones, so a resumed run ships only pending work.
    """

    def __init__(
        self, data, parents, config: LearnerConfig, seed, checkpoints,
        mp_context: str | None = None,
    ) -> None:
        self.n_nodes = config.parallel.n_nodes
        self.workers_per_node = config.parallel.resolve_n_workers()
        super().__init__(
            data, parents, config, seed, checkpoints,
            self.n_nodes * self.workers_per_node,
        )
        self.stats.n_nodes = self.n_nodes
        #: the measured tau/mu fit (``None`` until a traced dispatch has
        #: happened: :meth:`annotate` measures once, for the tier's life)
        self.calibration: dict | None = None
        self._children = ChildGroup(
            _NodeSession, self.n_nodes, label="node", error=NodeCrashedError,
            mp_context=mp_context, nested=True, remote_error=_remote_error,
        )
        #: each node's latest report of its local transport's counters
        self._reports: list[dict] = [
            {"inits": 0, "pools": 0, "transfers": 0, "pids": []}
        ] * self.n_nodes
        #: per-node channel (bytes, seconds) of the most recent ``run``
        self._last_traffic: list[tuple[int, float]] = []

    @property
    def node_pids(self) -> list[int]:
        """Node process pids — the failure-injection tests kill these."""
        return self._children.pids

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Launch the nodes and ship each its ``init`` frame: the matrix,
        the parents, the config, the seed and the checkpoint store.

        Idempotent; :meth:`run` calls it lazily, tests call it eagerly
        to learn the node pids.
        """
        if self._children.channels is not None:
            return
        self._children.start({
            "data": self.data,
            "parents": self.parents,
            "config": self.config,
            "seed": self.seed,
            "checkpoints": self.checkpoints,
        })
        self.stats.matrix_transfers += self.n_nodes  # one init frame each

    def _calibrate(self) -> None:
        """Fit tau/mu from echo round-trips over the (idle) channels."""
        small_rtts: list[float] = []
        large_rtts: list[float] = []
        for channel in self._children.channels:
            for rtts, blob, echoes in (
                (small_rtts, b"", CALIBRATION_SMALL_ECHOES),
                (large_rtts, b"\0" * (CALIBRATION_WORDS * 8), CALIBRATION_LARGE_ECHOES),
            ):
                for _ in range(echoes):
                    t0 = time.perf_counter()
                    channel.send_msg(("echo", blob))
                    channel.recv_msg()
                    rtts.append(time.perf_counter() - t0)
        model = calibrate_from_roundtrips(
            small_rtts, large_rtts, CALIBRATION_WORDS
        )
        self.calibration = {
            "tau": model.tau,
            "mu": model.mu,
            "n_nodes": self.n_nodes,
            "large_words": CALIBRATION_WORDS,
            "small_echoes": len(small_rtts),
            "large_echoes": len(large_rtts),
        }

    def worker_inits(self) -> int:
        """Worker initializations summed over the nodes' local pools."""
        return sum(report["inits"] for report in self._reports)

    def worker_pids(self) -> list[int]:
        """The node processes and the pool workers they last reported."""
        pids = list(self.node_pids)
        for report in self._reports:
            pids.extend(report["pids"])
        return pids

    def close(self) -> None:
        """Tear the tier down: close the nodes (each closes its own pool),
        reap them, and signal the group of any that hangs or died dirty."""
        self._children.close()

    # -- dispatch ----------------------------------------------------------
    def run(self, fn, ordered_items, *, schedule=None, chunksize=None):
        """List-schedule the pairs over the nodes, ``workers_per_node``
        pairs per request (``schedule`` and ``chunksize`` add nothing to
        that; the node's local pool pulls each batch dynamically).  Records
        come back stamped with the node id.
        """
        task_kind = next(
            (name for name, runner in TASK_RUNNERS.items() if runner is fn), None
        )
        if task_kind is None:
            raise ValueError(
                f"{getattr(fn, '__name__', fn)!r} is not in TASK_RUNNERS: "
                "shard nodes execute named runners only"
            )
        self.start()
        channels = self._children.channels
        before = [channel.traffic() for channel in channels]
        try:
            bodies = self._children.run(task_kind, ordered_items, self.workers_per_node)
        finally:
            self._last_traffic = [
                (n_bytes - b0, seconds - s0)
                for (n_bytes, seconds), (b0, s0) in zip(
                    (channel.traffic() for channel in channels), before
                )
            ]
            self.stats.transfer_bytes += sum(b for b, _ in self._last_traffic)
            self.stats.transfer_seconds += sum(s for _, s in self._last_traffic)
        records = []
        for node, body in bodies:
            records.extend((r[0], r[1], node, *r[3:]) for r in body["records"])
            self._reports[node] = body["node"]
        self.stats.pools_constructed = sum(r["pools"] for r in self._reports)
        self.stats.matrix_transfers = self.n_nodes + sum(
            r["transfers"] for r in self._reports
        )
        return records

    def annotate(self, trace) -> None:
        """The last run's channel traffic, the calibration, the node tier.

        The scheduler calls this after ``run`` has returned, so the
        channels are idle and the echoes measure the wire alone; their
        bytes stay outside ``stats.transfer_bytes`` (``run`` counts its own
        before/after delta)."""
        for node, (n_bytes, seconds) in enumerate(self._last_traffic):
            trace.mark_node_transfer(f"shard{node}", n_bytes, seconds)
        if self.calibration is None:
            self._calibrate()
        if trace.calibration is None:
            trace.calibration = self.calibration
        if trace.topology is None:
            trace.topology = {
                "shard_nodes": self.n_nodes,
                "workers_per_node": self.workers_per_node,
            }


class ShardedExecutor(TaskScheduler):
    """The scheduler bound to :class:`ShardTransport` — what
    :func:`repro.parallel.executor.open_executor` returns when
    ``config.parallel.n_nodes > 1``."""

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
            ShardTransport(
                data, parents, config, seed,
                CheckpointStore.open(checkpoint_dir, data, config, seed),
                mp_context,
            )
        )
        self.n_nodes = self.transport.n_nodes

    @property
    def node_pids(self) -> list[int]:
        return self.transport.node_pids

    @property
    def calibration(self) -> dict | None:
        return self.transport.calibration
