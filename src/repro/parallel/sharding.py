"""Multi-node sharded execution: a process-node tier above the executor.

The paper's headline experiments run on a 171-node cluster (Section 5,
Figs. 5-6); everything below :class:`repro.parallel.executor.
TaskPoolExecutor` is single-host.  This module adds the missing tier: a
driver partitions Task 1 GaneSH chains and Task 3 modules across N
"nodes", each node runs its *own* shared-memory worker pool locally and
ships back scored results, and the driver reassembles them by unit id.
Because every work unit consumes only its named random streams
(``("ganesh", g)``, ``("modules", id)``, ``("splits", id)``), where a unit
executes — which node, which worker, stolen or not — can never change the
learned network: bit-identity holds for any shard count x worker count,
the same consistency property the worker-level grids already assert.

Two transports speak one length-prefixed message protocol:

* ``socket`` — each node is a real OS process (spawn context) connected
  to the driver over a localhost TCP socket.  Frames are an 8-byte
  big-endian length followed by a pickled message tuple.  A node killed
  mid-run surfaces as :class:`NodeCrashedError` (the EOF tears the
  frame), mirroring the pool's :class:`~repro.parallel.executor.
  WorkerCrashedError`; checkpoints the dead run wrote remain valid and a
  re-run resumes from them.
* ``thread`` — the in-process fallback: nodes are threads exchanging the
  *same pickled frames* through :class:`repro.parallel.comm.ThreadComm`
  point-to-point mailboxes, so byte accounting and protocol behaviour
  match the socket backend without any processes.

At startup the driver measures echo round-trips over the real channels
and fits the :class:`~repro.parallel.costmodel.MachineModel` ``tau``/
``mu`` from them (:func:`~repro.parallel.costmodel.
calibrate_from_roundtrips`), installing the result process-wide so the
placement schedulers' remote-steal charge derives from the *measured*
interconnect instead of the hardcoded defaults.

Dispatch is LPT over the executor's cost model onto per-node queues with
cross-node stealing: each node's driver thread drains its own queue
largest-first and, when empty, steals a batch from the most-loaded
foreign queue — work conserving, so a slow node cannot strand work.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import LearnerConfig
from repro.parallel.costmodel import (
    MachineModel,
    calibrate_from_roundtrips,
    set_calibrated_model,
)

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


class NodeCrashedError(RuntimeError):
    """A shard node died mid-run (its channel tore mid-protocol).

    The node-tier mirror of :class:`repro.parallel.executor.
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
    """One endpoint of the length-prefixed socket protocol.

    Counts bytes and wall seconds in both directions so the driver can
    attribute transfer cost per node.  Any connection failure — EOF
    mid-frame, a reset from a SIGKILLed peer — raises
    :class:`NodeCrashedError`.
    """

    def __init__(self, sock: socket.socket, peer: str = "peer") -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.peer = peer
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_seconds = 0.0
        self.recv_seconds = 0.0

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


class ThreadChannel:
    """The same frame protocol over in-process ``ThreadComm`` mailboxes.

    Messages are still pickled to bytes before crossing the mailbox, so
    byte accounting — and anything unpicklable failing loudly — behaves
    exactly as on the socket backend.
    """

    def __init__(self, comm, peer_rank: int, peer: str = "peer") -> None:
        self._comm = comm
        self._peer_rank = peer_rank
        self.peer = peer
        #: recv wait bound; a node thread that died without replying
        #: surfaces as NodeCrashedError instead of a hang
        self.recv_timeout: float | None = 600.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_seconds = 0.0
        self.recv_seconds = 0.0

    def send_msg(self, message) -> None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        t0 = time.perf_counter()
        self._comm.send(payload, self._peer_rank)
        self.send_seconds += time.perf_counter() - t0
        self.bytes_sent += _FRAME_HEADER.size + len(payload)

    def recv_msg(self):
        t0 = time.perf_counter()
        try:
            payload = self._comm.recv(self._peer_rank, timeout=self.recv_timeout)
        except TimeoutError as exc:
            raise NodeCrashedError(
                f"{self.peer} sent no reply within {self.recv_timeout} s "
                "(node thread died?)"
            ) from exc
        self.recv_seconds += time.perf_counter() - t0
        self.bytes_received += _FRAME_HEADER.size + len(payload)
        return pickle.loads(payload)

    def close(self) -> None:
        pass


# -- node side ---------------------------------------------------------------


def _node_serve(channel, node_id: int) -> None:
    """One shard node's request loop (both backends).

    Messages are tuples ``(kind, ...)``:

    * ``("init", spec)`` — build this node's local
      :class:`~repro.parallel.executor.TaskPoolExecutor` (its own pool,
      its own shared-memory matrix; in-process execution when the
      node runs one worker) -> ``("ok", {"pid": ...})``;
    * ``("echo", payload)`` — calibration round-trip, payload bounced
      back verbatim -> ``("echo", payload)``;
    * ``("run", task_kind, items)`` — execute the items through the
      named runner from :data:`repro.parallel.tasks.TASK_RUNNERS`
      (the wire carries runner *names*, never pickled code) ->
      ``("result", {...})``, or ``("error", {...})`` on a task
      exception — the node keeps serving;
    * ``("close",)`` — tear the local executor down -> ``("bye", {})``.

    A torn channel (the driver died) exits the loop; the ``finally``
    still closes the local executor so no pool or shared segment leaks.
    """
    from repro.parallel.executor import TaskPoolExecutor
    from repro.parallel.tasks import TASK_RUNNERS

    executor = None
    try:
        while True:
            try:
                message = channel.recv_msg()
            except NodeCrashedError:
                break
            kind = message[0]
            if kind == "init":
                spec = message[1]
                executor = TaskPoolExecutor(
                    spec["data"],
                    spec["parents"],
                    spec["config"],
                    spec["seed"],
                    checkpoint_dir=spec["checkpoint_dir"],
                    mp_context=spec.get("mp_context"),
                )
                channel.send_msg(("ok", {"pid": os.getpid()}))
            elif kind == "echo":
                channel.send_msg(("echo", message[1]))
            elif kind == "run":
                task_kind, items = message[1], message[2]
                runner = TASK_RUNNERS.get(task_kind)
                if runner is None or executor is None:
                    channel.send_msg(
                        ("error", {
                            "type": "ProtocolError",
                            "message": f"bad run request {task_kind!r} "
                                       f"(initialized: {executor is not None})",
                        })
                    )
                    continue
                t0 = time.perf_counter()
                try:
                    results = executor.submit_runs(
                        runner, items, schedule="dynamic"
                    )
                except BaseException as exc:  # noqa: BLE001 - shipped back
                    channel.send_msg(
                        ("error", {"type": type(exc).__name__, "message": str(exc)})
                    )
                else:
                    channel.send_msg(
                        ("result", {
                            "results": results,
                            "seconds": time.perf_counter() - t0,
                            "inits": executor.worker_inits(),
                        })
                    )
            elif kind == "close":
                channel.send_msg(("bye", {}))
                break
            else:
                channel.send_msg(
                    ("error", {
                        "type": "ProtocolError",
                        "message": f"unknown message kind {kind!r}",
                    })
                )
    finally:
        if executor is not None:
            executor.close()
        channel.close()


def _socket_node_main(port: int, node_id: int, token: str) -> None:
    """Entry point of one spawned socket-backend node process."""
    sock = socket.create_connection(("127.0.0.1", port))
    channel = SocketChannel(sock, peer="driver")
    channel.send_msg(
        ("hello", {"node_id": node_id, "token": token, "pid": os.getpid()})
    )
    _node_serve(channel, node_id)


# -- driver-side shard planning ---------------------------------------------


def lpt_partition(costs, n_parts: int) -> list[list[int]]:
    """LPT assignment of item indices onto ``n_parts`` shards.

    Items are taken largest-cost-first (ties on the lower index) and each
    lands on the currently least-loaded shard (ties on the lower shard),
    so the plan is deterministic; each shard's list keeps that descending
    cost order — its dispatch queue drains largest-first, the same greedy
    the pool's dynamic module dispatch uses.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be at least 1")
    costs = np.asarray(costs, dtype=np.float64)
    parts: list[list[int]] = [[] for _ in range(n_parts)]
    loads = np.zeros(n_parts, dtype=np.float64)
    for index in np.argsort(-costs, kind="stable"):
        shard = int(np.argmin(loads))
        parts[shard].append(int(index))
        loads[shard] += costs[index]
    return parts


@dataclass
class ShardStats:
    """Observable behaviour of one sharded executor (asserted by tests)."""

    n_nodes: int = 1
    n_workers: int = 1
    #: one pool + one matrix transfer per node (each node pays the same
    #: once-per-learn cost the single-host executor does)
    pools_constructed: int = 0
    matrix_transfers: int = 0
    tasks_dispatched: int = 0
    #: batches a node pulled from a foreign shard queue
    node_steals: int = 0
    #: channel traffic, both directions, summed over nodes
    transfer_bytes: int = 0
    transfer_seconds: float = 0.0
    mode: str = ""


# -- the sharded executor ----------------------------------------------------


class ShardedExecutor:
    """Drive N shard nodes through the frame protocol (driver side).

    Interface-compatible with :class:`~repro.parallel.executor.
    TaskPoolExecutor` where the learner touches it
    (:meth:`sample_ganesh_runs`, :meth:`learn_modules`, :meth:`close`,
    ``stats``, ``worker_inits``), so
    :class:`repro.core.learner.LemonTreeLearner` routes through it
    transparently when ``config.parallel.n_nodes > 1``.

    Checkpoint handling is split: the *driver* preloads finished units
    (so a resumed run dispatches only pending work), the *nodes* write
    new checkpoints as units complete — exactly the single-host
    executor's guarantee, extended across the node tier.
    """

    def __init__(
        self,
        data: np.ndarray,
        parents: np.ndarray,
        config: LearnerConfig,
        seed: int,
        *,
        checkpoint_dir=None,
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.config = config
        self.seed = seed
        self.n_nodes = config.parallel.n_nodes
        self.node_backend = config.parallel.node_backend
        self.workers_per_node = config.parallel.resolve_n_workers()
        self.checkpoint_dir = (
            checkpoint_dir
            if checkpoint_dir is not None
            else config.parallel.checkpoint_dir
        )
        #: total workers across the tier (what the learner reports)
        self.n_workers = self.n_nodes * self.workers_per_node
        self.stats = ShardStats(
            n_nodes=self.n_nodes, n_workers=self.n_workers
        )
        #: the measured tau/mu fit (populated by :meth:`start`)
        self.calibration: dict | None = None
        #: node process pids (socket backend; thread nodes report the
        #: driver's own pid) — the failure-injection tests kill these
        self.node_pids: list[int] = []
        self._channels: list | None = None
        self._procs: list = []
        self._threads: list = []
        self._node_inits: list[int] = [0] * self.n_nodes
        self._lock = threading.Lock()
        self._prev_model: MachineModel | None | bool = False  # False = unset
        self._failed = False

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Launch the nodes, ship the init spec, calibrate tau/mu.

        Idempotent; :meth:`sample_ganesh_runs` / :meth:`learn_modules`
        call it lazily, tests call it eagerly to learn the node pids.
        """
        if self._channels is not None:
            return
        if self.node_backend == "socket":
            channels = self._start_socket_nodes()
        else:
            channels = self._start_thread_nodes()
        checkpoint_dir = (
            str(self.checkpoint_dir) if self.checkpoint_dir is not None else None
        )
        for node_id, channel in enumerate(channels):
            channel.send_msg(
                ("init", {
                    "data": self.data,
                    "parents": self.parents,
                    "config": self.config,
                    "seed": self.seed,
                    "checkpoint_dir": checkpoint_dir,
                    "node_id": node_id,
                    # Thread-backend nodes live inside the (multi-threaded)
                    # driver process: forking a pool there can capture a
                    # lock mid-held and deadlock the child, so those pools
                    # must spawn.  Socket nodes are fresh single-threaded
                    # processes where the cheaper fork default is safe.
                    "mp_context": (
                        "spawn" if self.node_backend == "thread" else None
                    ),
                })
            )
        for node_id, channel in enumerate(channels):
            tag, body = channel.recv_msg()
            if tag != "ok":
                raise NodeCrashedError(
                    f"node {node_id} failed to initialize: {body}"
                )
            if self.node_backend == "thread":
                self.node_pids.append(os.getpid())
        self._channels = channels
        self.stats.pools_constructed = self.n_nodes
        self.stats.matrix_transfers = self.n_nodes
        self._calibrate()

    def _start_socket_nodes(self) -> list[SocketChannel]:
        import multiprocessing

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(120.0)
        port = listener.getsockname()[1]
        token = os.urandom(16).hex()
        ctx = multiprocessing.get_context("spawn")
        self._procs = [
            ctx.Process(
                target=_socket_node_main,
                args=(port, node_id, token),
                daemon=False,  # nodes run their own (daemonic) pools
                name=f"shard-node-{node_id}",
            )
            for node_id in range(self.n_nodes)
        ]
        for proc in self._procs:
            proc.start()
        channels: list[SocketChannel | None] = [None] * self.n_nodes
        pids: list[int] = [0] * self.n_nodes
        try:
            for _ in range(self.n_nodes):
                conn, _addr = listener.accept()
                channel = SocketChannel(conn, peer="node")
                tag, hello = channel.recv_msg()
                if tag != "hello" or hello.get("token") != token:
                    raise NodeCrashedError(
                        "unexpected connection during node handshake"
                    )
                node_id = int(hello["node_id"])
                channel.peer = f"node {node_id}"
                channels[node_id] = channel
                pids[node_id] = int(hello["pid"])
        except socket.timeout as exc:
            raise NodeCrashedError(
                "shard node(s) failed to connect within the handshake timeout"
            ) from exc
        finally:
            listener.close()
        self.node_pids = pids
        return list(channels)

    def _start_thread_nodes(self) -> list[ThreadChannel]:
        from repro.parallel.comm import ThreadComm, _Context

        channels = []
        for node_id in range(self.n_nodes):
            context = _Context(2)
            driver_channel = ThreadChannel(
                ThreadComm(context, 0), peer_rank=1, peer=f"node {node_id}"
            )
            node_channel = ThreadChannel(
                ThreadComm(context, 1), peer_rank=0, peer="driver"
            )
            thread = threading.Thread(
                target=_node_serve,
                args=(node_channel, node_id),
                name=f"shard-node-{node_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            channels.append(driver_channel)
        return channels

    def _calibrate(self) -> None:
        """Fit tau/mu from echo round-trips over the live channels."""
        small_rtts: list[float] = []
        large_rtts: list[float] = []
        blob = b"\0" * (CALIBRATION_WORDS * 8)
        for channel in self._channels:
            for _ in range(CALIBRATION_SMALL_ECHOES):
                t0 = time.perf_counter()
                channel.send_msg(("echo", b""))
                channel.recv_msg()
                small_rtts.append(time.perf_counter() - t0)
            for _ in range(CALIBRATION_LARGE_ECHOES):
                t0 = time.perf_counter()
                channel.send_msg(("echo", blob))
                channel.recv_msg()
                large_rtts.append(time.perf_counter() - t0)
        model = calibrate_from_roundtrips(
            small_rtts, large_rtts, CALIBRATION_WORDS
        )
        self._prev_model = set_calibrated_model(model)
        self.calibration = {
            "tau": model.tau,
            "mu": model.mu,
            "n_nodes": self.n_nodes,
            "node_backend": self.node_backend,
            "large_words": CALIBRATION_WORDS,
            "small_echoes": len(small_rtts),
            "large_echoes": len(large_rtts),
        }

    def worker_inits(self) -> int:
        """Worker initializations summed over the nodes' local pools."""
        return sum(self._node_inits)

    def close(self) -> None:
        """Tear the tier down: close nodes, reap processes, restore the
        process-wide machine model the calibration displaced."""
        channels, self._channels = self._channels, None
        try:
            if channels is not None:
                for channel in channels:
                    try:
                        channel.send_msg(("close",))
                        channel.recv_msg()  # ("bye", {})
                    except NodeCrashedError:
                        pass
                for channel in channels:
                    channel.close()
        finally:
            for proc in self._procs:
                proc.join(timeout=30.0)
                if proc.is_alive():  # pragma: no cover - hung node
                    proc.terminate()
                    proc.join(timeout=10.0)
            self._procs = []
            for thread in self._threads:
                thread.join(timeout=30.0)
            self._threads = []
            if self._prev_model is not False:
                set_calibrated_model(self._prev_model)
                self._prev_model = False

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, task_kind: str, ids, payloads, costs, trace):
        """Run the units on the shard tier; returns ``{id: result}``.

        LPT over ``costs`` fills per-node queues; one driver thread per
        node drains its own queue in batches of that node's worker count
        and steals from the most-loaded foreign queue when its own runs
        dry.  Results are keyed by unit id, so the assignment — and any
        steal — cannot affect what the caller reassembles.
        """
        self.start()
        if self._failed:
            raise NodeCrashedError(
                "a shard node died earlier in this executor's lifetime; "
                "build a fresh executor to resume from checkpoints"
            )
        n = self.n_nodes
        plan = lpt_partition(costs, n)
        queues = [deque(part) for part in plan]
        batch_size = max(1, self.workers_per_node)
        results: dict = {}
        errors: list[BaseException] = []
        busy = [0.0] * n
        steals = [0] * n
        before = [
            (ch.bytes_sent + ch.bytes_received,
             ch.send_seconds + ch.recv_seconds)
            for ch in self._channels
        ]

        def pump(node: int) -> None:
            channel = self._channels[node]
            while True:
                with self._lock:
                    if errors:
                        return
                    if queues[node]:
                        source, stolen = node, False
                    else:
                        source = max(
                            range(n), key=lambda d: (len(queues[d]), -d)
                        )
                        if not queues[source]:
                            return  # every queue drained
                        stolen = True
                    count = min(batch_size, len(queues[source]))
                    take = [queues[source].popleft() for _ in range(count)]
                try:
                    channel.send_msg(
                        ("run", task_kind, [payloads[i] for i in take])
                    )
                    tag, body = channel.recv_msg()
                except NodeCrashedError as exc:
                    with self._lock:
                        errors.append(exc)
                        self._failed = True
                    return
                if tag != "result":
                    with self._lock:
                        errors.append(
                            RuntimeError(
                                f"shard node {node} task failed: "
                                f"{body.get('type')}: {body.get('message')}"
                            )
                        )
                    return
                with self._lock:
                    for index, result in zip(take, body["results"]):
                        results[ids[index]] = result
                    busy[node] += float(body["seconds"])
                    self._node_inits[node] = int(body.get("inits", 0))
                    if stolen:
                        steals[node] += 1

        threads = [
            threading.Thread(target=pump, args=(node,), name=f"shard-pump-{node}")
            for node in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        self.stats.tasks_dispatched += len(ids)
        self.stats.node_steals += sum(steals)
        for node, channel in enumerate(self._channels):
            b0, s0 = before[node]
            delta_bytes = (
                channel.bytes_sent + channel.bytes_received - b0
            )
            delta_seconds = (
                channel.send_seconds + channel.recv_seconds - s0
            )
            self.stats.transfer_bytes += delta_bytes
            self.stats.transfer_seconds += delta_seconds
            if trace is not None:
                trace.mark_node_transfer(
                    f"shard{node}", delta_bytes, delta_seconds
                )
        if trace is not None:
            for node in range(n):
                trace.mark_node_time(f"shard{node}", busy[node])
                if steals[node]:
                    trace.mark_node_steal(f"shard{node}", steals[node])
            if trace.calibration is None:
                trace.calibration = self.calibration
            if trace.topology is None:
                trace.topology = {
                    "shard_nodes": n,
                    "node_backend": self.node_backend,
                    "workers_per_node": self.workers_per_node,
                }

        if errors:
            for error in errors:
                if isinstance(error, NodeCrashedError):
                    raise error
            raise errors[0]
        return results

    # -- task 1: the G GaneSH co-clustering runs ---------------------------
    def sample_ganesh_runs(self, n_runs: int, trace=None) -> list[np.ndarray]:
        """Task 1 sharded: chains LPT-spread over the nodes, resumable.

        Chain run-times are statistically exchangeable, so the LPT plan
        degenerates to an even spread; checkpointed runs are preloaded
        driver-side and only pending chains cross the wire.
        """
        from repro.core.learner import _GaneshCheckpoints

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
            results = self._dispatch(
                "ganesh",
                pending,
                [(g, trace is not None) for g in pending],
                [1.0] * len(pending),
                trace,
            )
            # Ascending run order keeps the merged trace deterministic
            # whatever the completion order was.
            for g in sorted(results):
                _run, labels, steps = results[g]
                samples[g] = labels
                if trace is not None:
                    trace.steps.extend(steps)
        return [samples[g] for g in range(n_runs)]

    # -- task 3: module learning -------------------------------------------
    def learn_modules(self, modules_members, trace=None):
        """Task 3 sharded: whole modules LPT-spread over the nodes.

        Module granularity is exact across machines (each module consumes
        only its own streams — Segal et al.'s per-module decomposability),
        so the node tier always shards per module; each node's local pool
        still applies its own mode heuristic *within* its shard.
        """
        from repro.core.learner import _ModuleCheckpoints

        checkpoints = _ModuleCheckpoints(
            self.checkpoint_dir, self.seed, self.config
        )
        modules: dict = {}
        pending: list[tuple[int, list[int]]] = []
        for module_id, members in enumerate(modules_members):
            module = checkpoints.load(module_id, list(members))
            if module is None:
                pending.append((module_id, list(members)))
            else:
                modules[module_id] = module
        if pending:
            from repro.parallel.executor import estimate_module_cost

            n_obs = self.data.shape[1]
            results = self._dispatch(
                "module",
                [module_id for module_id, _ in pending],
                [
                    (module_id, members, trace is not None)
                    for module_id, members in pending
                ],
                [
                    estimate_module_cost(members, n_obs, self.config)
                    for _, members in pending
                ],
                trace,
            )
            for module_id in sorted(results):
                _mid, module, steps = results[module_id]
                modules[module_id] = module
                if trace is not None:
                    trace.steps.extend(steps)
        self.stats.mode = "module"
        return [modules[module_id] for module_id in range(len(modules_members))]
