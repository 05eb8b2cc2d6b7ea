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

Each node is a real OS process connected to the driver over a localhost
TCP socket, started by the one rule every child of the executor tier
follows (:func:`repro.parallel.poolutil.pool_context`: fork where
available; a fresh interpreter where it is not, or where the caller's
``mp_context`` says so because it lives in a multi-threaded process).
Frames are an 8-byte big-endian length followed by a pickled message
tuple.  A node killed mid-run surfaces as :class:`NodeCrashedError` (the
EOF tears the frame); checkpoints the dead run wrote remain valid and a
re-run resumes from them.

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

import os
import pickle
import signal
import socket
import struct
import threading
import time
from multiprocessing.util import register_after_fork

import numpy as np

from repro.core.checkpoints import CheckpointStore
from repro.core.config import LearnerConfig
from repro.parallel import poolutil
from repro.parallel.costmodel import calibrate_from_roundtrips
from repro.parallel.executor import TaskScheduler
from repro.parallel.tasks import _WORKER, TASK_RUNNERS
from repro.parallel.transport import Transport, WorkerCrashedError, local_transport

#: 8-byte big-endian frame length prefix
_FRAME_HEADER = struct.Struct("!Q")

#: refuse frames above this size (a corrupt header must not allocate 2^60
#: bytes); the expression matrices this pipeline ships are far smaller
MAX_FRAME_BYTES = 1 << 34

#: words (8 bytes each) carried each way by a large calibration echo
CALIBRATION_WORDS = 64 * 1024
#: echo repetitions per node (medians over these resist scheduler jitter)
CALIBRATION_SMALL_ECHOES = 5
CALIBRATION_LARGE_ECHOES = 3

#: how long every node together may take to connect and say ``hello``
HANDSHAKE_SECONDS = 120.0
#: how often the accept loop looks for a node that exited before its hello
ACCEPT_POLL_SECONDS = 0.2
#: how long a node may take to answer ``close`` and then to exit before
#: the driver stops asking and kills its process group
NODE_EXIT_SECONDS = 30.0


class NodeCrashedError(RuntimeError):
    """A shard node died mid-run (its channel tore mid-protocol).

    The node-tier mirror of :class:`repro.parallel.transport.
    WorkerCrashedError`: checkpoints written before the crash remain
    valid, and re-running the same call executes only the missing units.
    """


# -- frame codec -------------------------------------------------------------


def encode_frame(message) -> bytes:
    """One wire frame: 8-byte big-endian length + pickled message."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload)) + payload


def decode_frame_length(header: bytes) -> int:
    """The payload length announced by an 8-byte frame header."""
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise NodeCrashedError(
            f"frame header announces {length} bytes (corrupt stream?)"
        )
    return length


# -- channels ----------------------------------------------------------------


class SocketChannel:
    """One endpoint of the frame protocol over a TCP socket.

    Counts bytes and wall seconds in both directions so the driver can
    attribute transfer cost per node.  Any connection failure — EOF
    mid-frame, a reset from a SIGKILLed peer, a peer silent for longer
    than :attr:`recv_timeout` — raises :class:`NodeCrashedError`.
    """

    def __init__(self, sock: socket.socket, peer: str = "peer") -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.peer = peer
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_seconds = 0.0
        self.recv_seconds = 0.0
        # A process forked while this channel is live (another transport's
        # node, a pool worker) drops its copy of the connection at once:
        # the peer must see EOF the moment *this* process goes away.
        register_after_fork(self, SocketChannel.close)

    @property
    def recv_timeout(self) -> float | None:
        """The recv wait bound in seconds (``None`` waits forever)."""
        return self._sock.gettimeout()

    @recv_timeout.setter
    def recv_timeout(self, seconds: float | None) -> None:
        self._sock.settimeout(seconds)

    def send_msg(self, message) -> None:
        frame = encode_frame(message)
        t0 = time.perf_counter()
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise NodeCrashedError(
                f"{self.peer} connection failed during send: {exc}"
            ) from exc
        self.send_seconds += time.perf_counter() - t0
        self.bytes_sent += len(frame)

    def recv_msg(self):
        t0 = time.perf_counter()
        header = self._recv_exact(_FRAME_HEADER.size)
        payload = self._recv_exact(decode_frame_length(header))
        self.recv_seconds += time.perf_counter() - t0
        self.bytes_received += len(header) + len(payload)
        return pickle.loads(payload)

    def traffic(self) -> tuple[int, float]:
        """Bytes and wall seconds so far, both directions combined."""
        return (
            self.bytes_sent + self.bytes_received,
            self.send_seconds + self.recv_seconds,
        )

    def _recv_exact(self, n: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            try:
                chunk = self._sock.recv(min(1 << 20, n - len(chunks)))
            except OSError as exc:
                raise NodeCrashedError(
                    f"{self.peer} connection failed during recv: {exc}"
                ) from exc
            if not chunk:
                raise NodeCrashedError(
                    f"{self.peer} closed the connection mid-protocol "
                    "(node process died?)"
                )
            chunks += chunk
        return bytes(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already gone
            pass


# -- node side ---------------------------------------------------------------


def _node_serve(channel: SocketChannel, node_id: int) -> None:
    """One shard node's request loop.

    Messages are tuples ``(kind, ...)``:

    * ``("init", spec)`` — build this node's local transport
      (:func:`repro.parallel.transport.local_transport`) ->
      ``("ok", {"pid": ...})``;
    * ``("echo", payload)`` — calibration round-trip, bounced back verbatim;
    * ``("run", task_kind, pairs)`` — execute the ``(index, item)``
      pairs through the named runner of
      :data:`repro.parallel.tasks.TASK_RUNNERS` (the wire carries runner
      *names*, never pickled code) -> ``("result", {"records", "node"})``:
      the local transport's completion records and its counters, or
      ``("error", {...})`` on a task exception — the node keeps serving;
    * ``("close",)`` — tear the local transport down -> ``("bye", {})``.

    A torn channel (the driver died) exits the loop; the ``finally``
    still closes the local transport so no pool or shared segment leaks.
    """
    local = None
    try:
        while True:
            try:
                message = channel.recv_msg()
            except NodeCrashedError:
                break
            kind = message[0]
            if kind == "init":
                spec = message[1]
                local = local_transport(
                    spec["data"],
                    spec["parents"],
                    spec["config"],
                    spec["seed"],
                    spec["checkpoints"],
                )
                channel.send_msg(("ok", {"pid": os.getpid()}))
            elif kind == "echo":
                channel.send_msg(("echo", message[1]))
            elif kind == "run" and local is not None and message[1] in TASK_RUNNERS:
                task_kind, pairs = message[1:]
                try:
                    records = local.run(
                        TASK_RUNNERS[task_kind], pairs, schedule="dynamic"
                    )
                except Exception as exc:  # shipped back; the node keeps serving
                    channel.send_msg(
                        ("error", {"type": type(exc).__name__, "message": str(exc)})
                    )
                else:
                    channel.send_msg(
                        ("result", {
                            "records": records,
                            "node": {
                                "inits": local.worker_inits(),
                                "pools": local.stats.pools_constructed,
                                "transfers": local.stats.matrix_transfers,
                                "pids": local.worker_pids(),
                            },
                        })
                    )
            elif kind == "close":
                channel.send_msg(("bye", {}))
                break
            else:
                channel.send_msg(
                    ("error", {
                        "type": "ProtocolError",
                        "message": f"bad request {message[:2]!r} "
                                   f"(initialized: {local is not None})",
                    })
                )
    finally:
        if local is not None:
            local.close()
        channel.close()


def _socket_node_main(port: int, node_id: int, token: str) -> None:
    """Entry point of one node process, forked or spawned.

    A forked node must be the fresh interpreter a spawned one is.  Its copy
    of the listener and of every other live channel is already closed (the
    ``register_after_fork`` hooks ran before this), and here it drops the
    worker context the driver may hold at module scope, so none of it can
    surface in this node's completion records.  The node leads its own
    process group: whoever has to kill it takes its pool workers along.
    """
    if hasattr(os, "setpgid"):
        os.setpgid(0, 0)
    _WORKER.clear()
    sock = socket.create_connection(("127.0.0.1", port))
    channel = SocketChannel(sock, peer="driver")
    channel.send_msg(
        ("hello", {"node_id": node_id, "token": token, "pid": os.getpid()})
    )
    _node_serve(channel, node_id)


def _signal_group(proc, sig: int) -> None:
    """Signal a node and the process group it leads (its pool workers,
    orphaned or not).  No such group: the node died before ``setpgid``,
    when it had no children yet."""
    try:
        os.killpg(proc.pid, sig)
    except (AttributeError, ProcessLookupError, PermissionError):
        pass
    if proc.is_alive():
        os.kill(proc.pid, sig)


# -- the shard transport -----------------------------------------------------

#: error frames re-raise through this closed name -> class map; any other
#: remote type stays a ``RuntimeError`` naming it — the wire never carries code
_REMOTE_ERRORS = {
    "WorkerCrashedError": WorkerCrashedError,
    "NodeCrashedError": NodeCrashedError,
}


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
        #: node process pids — the failure-injection tests kill these
        self.node_pids: list[int] = []
        self._mp_context = mp_context
        self._channels: list | None = None
        self._procs: list = []
        #: each node's latest report of its local transport's counters
        self._reports: list[dict] = [
            {"inits": 0, "pools": 0, "transfers": 0, "pids": []}
        ] * self.n_nodes
        #: per-node channel (bytes, seconds) of the most recent ``run``
        self._last_traffic: list[tuple[int, float]] = []
        self._lock = threading.Lock()
        self._failed = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Launch the nodes and ship the init spec.

        Idempotent; :meth:`run` calls it lazily, tests call it eagerly
        to learn the node pids.
        """
        if self._channels is not None:
            return
        channels: list = [None] * self.n_nodes
        try:
            self._start_socket_nodes(channels)
            self._init_nodes(channels)
        except BaseException:
            # Nothing half-started survives a failed start: every accepted
            # channel is closed (its node sees EOF and exits) and every
            # process is reaped now, not by close() one join timeout each.
            for channel in channels:
                if channel is not None:
                    channel.close()
            self._reap(grace=0.0)
            raise
        self._channels = channels
        self.stats.matrix_transfers += self.n_nodes  # one init frame each

    def _init_nodes(self, channels) -> None:
        for channel in channels:
            channel.send_msg(
                ("init", {
                    "data": self.data,
                    "parents": self.parents,
                    "config": self.config,
                    "seed": self.seed,
                    "checkpoints": self.checkpoints,
                })
            )
        for node_id, channel in enumerate(channels):
            tag, body = channel.recv_msg()
            if tag != "ok":
                raise NodeCrashedError(
                    f"node {node_id} failed to initialize: {body}"
                )

    def _start_socket_nodes(self, channels: list) -> None:
        listener = socket.create_server(("127.0.0.1", 0))
        register_after_fork(listener, socket.socket.close)
        listener.settimeout(ACCEPT_POLL_SECONDS)
        port = listener.getsockname()[1]
        token = os.urandom(16).hex()
        # The pool's rule: fork where available, else — or when the caller,
        # living in a multi-threaded process, says so — spawn.
        ctx = poolutil.pool_context(self._mp_context)
        self._procs = [
            ctx.Process(
                target=_socket_node_main,
                args=(port, node_id, token),
                daemon=False,  # nodes run their own (daemonic) pools
                name=f"shard-node-{node_id}",
            )
            for node_id in range(self.n_nodes)
        ]
        # Every node is started before the first accept(): none is forked
        # while a sibling's connection exists to be inherited.
        for proc in self._procs:
            proc.start()
        self.node_pids = [proc.pid for proc in self._procs]
        deadline = time.monotonic() + HANDSHAKE_SECONDS
        try:
            while None in channels:
                try:
                    conn, _addr = listener.accept()
                except socket.timeout:
                    self._check_unconnected(channels, deadline)
                    continue
                channel = SocketChannel(conn, peer="node")
                try:
                    # accept() hands back a blocking socket whatever the
                    # listener's timeout: a peer that connects and then says
                    # nothing must not outwait the handshake.
                    channel.recv_timeout = max(0.0, deadline - time.monotonic())
                    tag, hello = channel.recv_msg()
                    if tag != "hello" or hello.get("token") != token:
                        raise NodeCrashedError(
                            "unexpected connection during node handshake"
                        )
                    channel.recv_timeout = None
                except BaseException:
                    channel.close()
                    raise
                node_id = int(hello["node_id"])
                channel.peer = f"node {node_id}"
                channels[node_id] = channel
        finally:
            listener.close()

    def _check_unconnected(self, channels, deadline: float) -> None:
        """Fail the handshake as soon as it cannot complete: a node that
        exited before its ``hello`` (import error, OOM kill) will never
        connect, whatever the timeout."""
        for node_id, proc in enumerate(self._procs):
            if channels[node_id] is None and proc.exitcode is not None:
                raise NodeCrashedError(
                    f"node {node_id} (pid {proc.pid}) exited with code "
                    f"{proc.exitcode} before its hello"
                )
        if time.monotonic() > deadline:
            raise NodeCrashedError(
                "shard node(s) failed to connect within the handshake timeout"
            )

    def _calibrate(self) -> None:
        """Fit tau/mu from echo round-trips over the (idle) channels."""
        small_rtts: list[float] = []
        large_rtts: list[float] = []
        for channel in self._channels:
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
        """Tear the tier down: close nodes, reap processes.

        Two phases — ``close`` to every node, then every ``bye`` — so the
        nodes tear their pools down (and, spawned, finalize their
        interpreters) side by side: closing costs the slowest node, not
        the sum.
        """
        channels, self._channels = self._channels or [], None
        try:
            for channel in channels:
                try:
                    channel.send_msg(("close",))
                except NodeCrashedError:
                    pass
            for channel in channels:
                channel.recv_timeout = NODE_EXIT_SECONDS
                try:
                    channel.recv_msg()  # ("bye", {})
                except NodeCrashedError:
                    pass
                channel.close()
        finally:
            self._reap()

    def _reap(self, grace: float = NODE_EXIT_SECONDS) -> None:
        """Join every node within ``grace`` seconds in total; a node still
        alive then, or one that died without tearing down its pool, has
        its whole process group signalled — no worker outlives its node."""
        deadline = time.monotonic() + grace
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.exitcode != 0:
                # SIGTERM first: the node's resource tracker ignores it and
                # so lives to unlink the shared matrix its owner left behind.
                _signal_group(proc, signal.SIGTERM)
                proc.join(timeout=10.0)
                if proc.is_alive():
                    _signal_group(proc, signal.SIGKILL)
                    proc.join(timeout=10.0)
        self._procs = []

    # -- dispatch ----------------------------------------------------------
    def run(self, fn, ordered_items, *, schedule=None, chunksize=None):
        """List-schedule the pairs over the nodes: one driver thread per
        node pulls the next ``workers_per_node`` pairs from the shared list
        whenever its node is free, so work starts in the order given and an
        idle node never waits on a busy one (``schedule`` and ``chunksize``
        add nothing to that; the node's local pool pulls each batch
        dynamically).  Records come back stamped with the node id.
        """
        self.start()
        if self._failed:
            raise NodeCrashedError(
                "a shard node died earlier in this executor's lifetime; "
                "build a fresh executor to resume from checkpoints"
            )
        task_kind = next(
            (name for name, runner in TASK_RUNNERS.items() if runner is fn), None
        )
        if task_kind is None:
            raise ValueError(
                f"{getattr(fn, '__name__', fn)!r} is not in TASK_RUNNERS: "
                "shard nodes execute named runners only"
            )
        total = len(ordered_items)
        cursor = 0
        records: list = []
        errors: list[BaseException] = []
        before = [channel.traffic() for channel in self._channels]

        def pump(node: int) -> None:
            nonlocal cursor
            channel = self._channels[node]
            while True:
                with self._lock:
                    if errors or cursor >= total:
                        return
                    lo, hi = cursor, min(cursor + self.workers_per_node, total)
                    cursor = hi
                try:
                    channel.send_msg(("run", task_kind, ordered_items[lo:hi]))
                    tag, body = channel.recv_msg()
                except NodeCrashedError as exc:
                    with self._lock:
                        errors.append(exc)
                        self._failed = True
                    return
                with self._lock:
                    if tag != "result":
                        detail = f"{body.get('type')}: {body.get('message')}"
                        errors.append(
                            _REMOTE_ERRORS.get(body.get("type"), RuntimeError)(
                                f"shard node {node} task failed: {detail}"
                            )
                        )
                        return
                    records.extend(
                        (r[0], r[1], node, *r[3:]) for r in body["records"]
                    )
                    self._reports[node] = body["node"]

        threads = [
            threading.Thread(target=pump, args=(node,), name=f"shard-pump-{node}")
            for node in range(self.n_nodes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        self._last_traffic = [
            (n_bytes - b0, seconds - s0)
            for (n_bytes, seconds), (b0, s0) in zip(
                (channel.traffic() for channel in self._channels), before
            )
        ]
        self.stats.transfer_bytes += sum(b for b, _ in self._last_traffic)
        self.stats.transfer_seconds += sum(s for _, s in self._last_traffic)
        self.stats.pools_constructed = sum(r["pools"] for r in self._reports)
        self.stats.matrix_transfers = self.n_nodes + sum(
            r["transfers"] for r in self._reports
        )
        if errors:
            raise next(
                (e for e in errors if isinstance(e, NodeCrashedError)), errors[0]
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
