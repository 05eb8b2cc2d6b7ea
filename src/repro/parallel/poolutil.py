"""Child processes of the executor tier: one way to launch, feed and reap them.

Every child the executor tier launches — the pool workers of
:class:`repro.parallel.transport.PoolTransport`, the shard nodes of
:class:`repro.parallel.sharding.ShardTransport` — belongs to a
:class:`ChildGroup`: a process started by :func:`pool_context`'s one
start-method rule (``fork`` where available, ``spawn`` otherwise or when
the caller asks for it, :data:`THREADED_START_METHOD`) over one end of a
``socket.socketpair()``.  The driver speaks the frame protocol of
:class:`SocketChannel` on the other end: an ``init`` frame ships the
child's state explicitly (so fork and spawn behave identically), ``run``
frames are list-scheduled over the children, ``close``/``bye`` ends them.
A child that dies shows as EOF on its channel — the tier's typed crash
error at once, never a poll and never a hang — and no listening port is
ever opened.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import threading
import time

#: what a caller living in a multi-threaded process (the service daemon)
#: passes as ``method``: a fork there can copy a lock another thread holds
#: and deadlock the child
THREADED_START_METHOD = "spawn"

#: 8-byte big-endian frame length prefix
_FRAME_HEADER = struct.Struct("!Q")

#: refuse frames above this size (a corrupt header must not allocate 2^60
#: bytes); the expression matrices this pipeline ships are far smaller
MAX_FRAME_BYTES = 1 << 34

#: how long a child may take to answer ``close`` and then to exit before
#: the driver stops asking and kills it
EXIT_SECONDS = 30.0

#: how long a child may take to answer ``init`` before the start fails: a
#: live child that never answers must not hold ``start()`` forever
INIT_SECONDS = 120.0


class WorkerCrashedError(RuntimeError):
    """A pool worker process died mid-task.

    Raised by :meth:`repro.parallel.transport.PoolTransport.run` the moment
    the worker's channel reaches EOF.  Checkpoints written before the crash
    remain valid; re-running the same call executes only the missing units.
    """


class NodeCrashedError(RuntimeError):
    """A shard node died mid-run, or any other peer of a
    :class:`SocketChannel` tore the connection mid-protocol.

    The node-tier mirror of :class:`WorkerCrashedError`: checkpoints
    written before the crash remain valid, and re-running the same call
    executes only the missing units.
    """


def pool_context(method: str | None = None):
    """The multiprocessing context every child is launched from (imported
    here: a process that starts no child never loads ``multiprocessing``).

    ``fork`` is preferred (children inherit the parent's address space —
    loaded modules, the certified native kernel — so a child costs a fork,
    not an interpreter); where it is unavailable the ``spawn`` method is
    used.  Pass ``method`` to force a specific start method.
    """
    import multiprocessing as mp

    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


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


class SocketChannel:
    """One endpoint of the frame protocol over a stream socket: a child's
    socketpair end, or a TCP connection of the service daemon (the only
    sockets that get ``TCP_NODELAY``).

    Counts bytes and wall seconds in both directions so the driver can
    attribute transfer cost per node.  Any connection failure — EOF
    mid-frame, a reset from a SIGKILLed peer, a peer silent for longer
    than :attr:`recv_timeout` — raises ``error`` (:class:`NodeCrashedError`
    unless the owner names its tier's own).
    """

    def __init__(
        self, sock: socket.socket, peer: str = "peer", error=NodeCrashedError
    ) -> None:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.peer = peer
        self.error = error
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_seconds = 0.0
        self.recv_seconds = 0.0
        # A process forked while this channel is live (a sibling child,
        # another transport's) drops its copy of the connection at once:
        # the peer must see EOF the moment *this* process goes away.
        from multiprocessing.util import register_after_fork

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
            raise self.error(
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
                raise self.error(
                    f"{self.peer} connection failed during recv: {exc}"
                ) from exc
            if not chunk:
                raise self.error(
                    f"{self.peer} closed the connection mid-protocol "
                    "(process died?)"
                )
            chunks += chunk
        return bytes(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already gone
            pass


# -- child side --------------------------------------------------------------


def _child_main(sock: socket.socket, index: int, open_session, nested: bool) -> None:
    """Entry point of every child, forked or spawned: serve frames until
    ``close`` or until the driver goes away.

    Messages are tuples ``(kind, ...)``:

    * ``("init", spec)`` — ``open_session(spec, index)`` builds the
      child's state -> ``("ok", {"pid": ...})``;
    * ``("run", head, pairs)`` -> ``("result", session.run(head, pairs))``;
    * ``("echo", payload)`` — calibration round-trip, bounced back verbatim;
    * ``("close",)`` -> ``("bye", {})``.

    An exception raised by ``init`` or ``run`` goes back as ``("error",
    exc)`` and the child keeps serving.  A ``nested`` child (a shard node,
    which runs a pool of its own) leads its own process group, so whoever
    has to kill it takes its workers along.
    """
    if nested and hasattr(os, "setpgid"):
        os.setpgid(0, 0)
    channel = SocketChannel(sock, peer="driver")
    session = None
    try:
        while True:
            message = channel.recv_msg()
            kind = message[0]
            if kind == "close":
                channel.send_msg(("bye", {}))
                break
            try:
                if kind == "init":
                    session = open_session(message[1], index)
                    reply = ("ok", {"pid": os.getpid()})
                elif kind == "run":
                    reply = ("result", session.run(*message[1:]))
                else:
                    reply = message
            except Exception as exc:  # shipped back; the child keeps serving
                reply = ("error", exc)
            try:
                channel.send_msg(reply)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                channel.send_msg(("error", RuntimeError(f"{kind} reply does not pickle: {exc}")))
    except NodeCrashedError:
        pass  # the driver went away: nothing is left to answer
    finally:
        if session is not None:
            session.close()
        channel.close()


# -- driver side -------------------------------------------------------------


class ChildGroup:
    """``n`` children over socketpairs, driven from this process.

    ``open_session(spec, index)`` builds a child's state from its ``init``
    frame (a module-level callable: a spawned child unpickles it by name);
    ``error`` is the tier's crash type; ``remote_error(child, exc)`` turns
    an exception a child shipped back into what :meth:`run` raises.
    """

    def __init__(
        self, open_session, n: int, *, label: str, error,
        mp_context: str | None = None, nested: bool = False,
        remote_error=None,
    ) -> None:
        self.n = n
        self.label = label
        self.error = error
        self._open_session = open_session
        self._mp_context = mp_context
        self._nested = nested
        self._remote_error = remote_error or (lambda child, exc: exc)
        self.channels: list[SocketChannel] | None = None
        self.procs: list = []
        #: child pids in index order, kept after :meth:`close`
        self.pids: list[int] = []
        #: how many children answered ``init``
        self.inits = 0
        self.failed = False

    def start(self, spec) -> None:
        """Launch every child, then send each its ``init`` frame and wait
        for every answer (idempotent).  A child that dies first, or does
        not answer within :data:`INIT_SECONDS`, fails the start with
        :attr:`error`, and whatever was launched is reaped before the error
        reaches the caller."""
        if self.channels is not None:
            return
        self.channels, self.pids = [], []
        ctx = pool_context(self._mp_context)
        try:
            for index in range(self.n):
                ours, theirs = socket.socketpair()
                self.channels.append(
                    SocketChannel(ours, f"{self.label} {index}", self.error)
                )
                proc = ctx.Process(
                    target=_child_main,
                    args=(theirs, index, self._open_session, self._nested),
                    # a nested child runs children of its own
                    daemon=not self._nested,
                    name=f"{self.label}-{index}",
                )
                try:
                    proc.start()
                finally:
                    # Only the child holds its end from here on: no later
                    # sibling inherits it, so its death is EOF here.
                    theirs.close()
                self.procs.append(proc)
                self.pids.append(proc.pid)
            for channel in self.channels:
                channel.send_msg(("init", spec))
            for index, channel in enumerate(self.channels):
                channel.recv_timeout = INIT_SECONDS
                try:
                    tag, body = channel.recv_msg()
                except self.error as exc:
                    proc = self.procs[index]
                    if not isinstance(exc.__cause__, TimeoutError):
                        proc.join(timeout=1.0)
                    if proc.is_alive():
                        raise self.error(
                            f"{self.label} {index} (pid {proc.pid}) did not answer "
                            f"its init within {INIT_SECONDS:g} s"
                        ) from exc
                    raise self.error(
                        f"{self.label} {index} (pid {proc.pid}) died before its "
                        f"init reply (exit code {proc.exitcode})"
                    ) from exc
                channel.recv_timeout = None
                if tag != "ok":
                    raise self.error(
                        f"{self.label} {index} failed to initialize: {body!r}"
                    )
                self.inits += 1
        except BaseException:
            self.failed = True
            for channel in self.channels:
                channel.close()
            self.channels = []
            self._reap(grace=0.0)
            raise

    def run(self, head, pairs, batch: int) -> list:
        """List-schedule ``pairs`` over the children: one driver thread per
        child sends it the next ``batch`` pairs (``("run", head, pairs)``)
        whenever it is free, so work starts in the order given and an idle
        child never waits on a busy one.  Returns ``(child, body)`` per
        answered frame.  A dead child raises :attr:`error` once every other
        child has answered its frame in flight, and the group refuses
        further runs."""
        if self.failed:
            raise self.error(
                f"a {self.label} died earlier in this executor's lifetime; "
                "build a fresh executor to resume from checkpoints"
            )
        total = len(pairs)
        cursor = 0
        bodies: list = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def pump(child: int) -> None:
            nonlocal cursor
            channel = self.channels[child]
            while True:
                with lock:
                    if errors or cursor >= total:
                        return
                    lo, hi = cursor, min(cursor + batch, total)
                    cursor = hi
                try:
                    channel.send_msg(("run", head, pairs[lo:hi]))
                    tag, body = channel.recv_msg()
                except Exception as exc:  # a crash, or a frame that does not pickle
                    with lock:
                        errors.append(exc)
                        self.failed |= isinstance(exc, self.error)
                    return
                with lock:
                    if tag != "result":
                        errors.append(self._remote_error(child, body))
                        return
                    bodies.append((child, body))

        threads = [
            threading.Thread(target=pump, args=(child,), name=f"{self.label}-pump-{child}")
            for child in range(self.n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise next((e for e in errors if isinstance(e, self.error)), errors[0])
        return bodies

    def close(self) -> None:
        """Two phases — ``close`` to every child, then every ``bye`` — so
        the children tear down (and, spawned, finalize their interpreters)
        side by side, then reap them all (idempotent)."""
        channels, self.channels = self.channels or [], None
        try:
            for channel in channels:
                try:
                    channel.send_msg(("close",))
                except self.error:
                    pass
            for channel in channels:
                channel.recv_timeout = EXIT_SECONDS
                try:
                    channel.recv_msg()  # ("bye", {})
                except self.error:
                    pass
                channel.close()
        finally:
            self._reap()

    def _reap(self, grace: float = EXIT_SECONDS) -> None:
        """Join every child within ``grace`` seconds in total; one still
        alive then — or a nested one that died without tearing down its
        own children — is signalled, with its process group if it leads
        one: nothing outlives its parent."""
        deadline = time.monotonic() + grace
        for proc in self.procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.exitcode != 0:
                # SIGTERM first: a node's resource tracker ignores it and so
                # lives to unlink the shared matrix its owner left behind.
                self._signal(proc, signal.SIGTERM)
                proc.join(timeout=10.0)
                if proc.is_alive():
                    self._signal(proc, signal.SIGKILL)
                    proc.join(timeout=10.0)
        self.procs = []

    def _signal(self, proc, sig: int) -> None:
        """Signal a child, and the process group a nested one leads (its
        workers, orphaned or not).  No such group: it died before
        ``setpgid``, when it had no children yet."""
        if self._nested:
            try:
                os.killpg(proc.pid, sig)
            except (AttributeError, ProcessLookupError, PermissionError):
                pass
        if proc.is_alive():
            os.kill(proc.pid, sig)
