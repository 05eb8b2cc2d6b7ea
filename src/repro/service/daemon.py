"""Socket front-end of the inference service.

:class:`ServiceDaemon` exposes an :class:`~repro.service.jobs.
InferenceService` over a localhost TCP socket in the length-prefixed
frame protocol every executor child speaks over its socketpair
(:class:`repro.parallel.poolutil.SocketChannel`), so the wire format,
crash semantics and size limits are shared with the executor tier.  This
listener is the package's only open port.

The conversation is one request per connection: the client connects,
sends a single ``(verb, payload)`` frame carrying the daemon's
capability token, and reads back either ``("ok", body)`` or
``("error", {"type", "message"})``; the error type names the original
exception class so :class:`repro.service.client.ServiceClient` can
re-raise it typed (:class:`~repro.service.jobs.AdmissionRejected`,
:class:`~repro.service.jobs.JobFailed`, ...).  Discovery is file-based:
the daemon writes ``endpoint.json`` (host, port, token, pid) into its
run directory atomically, and clients bootstrap from that file — the
token doubles as the auth secret, readable only by whoever can read the
run directory.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from pathlib import Path

from repro.parallel.poolutil import NodeCrashedError, SocketChannel
from repro.service.jobs import InferenceService

#: how long one read or write of a request connection may wait on its
#: client before the daemon closes it: a client that connects and then
#: falls silent must not hold a handler thread forever
IDLE_SECONDS = 30.0

#: verbs a connection may open with
_VERBS = (
    "ping",
    "submit",
    "status",
    "result",
    "cancel",
    "stats",
    "shutdown",
)


class ServiceDaemon:
    """Serve one :class:`InferenceService` on a localhost socket.

    ``root`` is the run directory: job checkpoint namespaces live under
    it and ``endpoint.json`` is written there on :meth:`start`.  Binding
    is loopback-only by construction; ``port=0`` (the default) lets the
    OS pick a free port.
    """

    def __init__(self, root, *, port: int = 0, max_inflight: int = 4) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.service = InferenceService(self.root, max_inflight=max_inflight)
        self._listener = socket.create_server(("127.0.0.1", port))
        self.host, self.port = self._listener.getsockname()
        self.token = os.urandom(16).hex()
        self._shutdown = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    @property
    def endpoint_path(self) -> Path:
        return self.root / "endpoint.json"

    def start(self) -> "ServiceDaemon":
        """Start accepting connections and publish ``endpoint.json``."""
        if self._accept_thread is not None:
            return self
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-service-accept", daemon=True
        )
        self._accept_thread.start()
        payload = {
            "host": self.host,
            "port": self.port,
            "token": self.token,
            "pid": os.getpid(),
        }
        tmp = self.endpoint_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(self.endpoint_path)  # atomic: readers never see a torn file
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown` (or a client ``shutdown``)."""
        self._shutdown.wait()
        self.close()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
        self.service.close()
        try:
            self.endpoint_path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling -------------------------------------------------
    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while not self._shutdown.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed under us
                return
            # One thread per request: requests are tiny (the heavy work
            # happens on the service's runner thread) so plain threads
            # comfortably outlast any realistic client count.
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        channel = SocketChannel(conn, peer="client")
        channel.recv_timeout = IDLE_SECONDS
        try:
            verb, payload = channel.recv_msg()
            if not isinstance(payload, dict) or payload.get("token") != self.token:
                channel.send_msg(
                    ("error", {"type": "AuthError", "message": "bad token"})
                )
                return
            if verb not in _VERBS:
                raise ValueError(f"unknown verb {verb!r}")
            body = self._dispatch(verb, payload)
            channel.send_msg(("ok", body))
            if verb == "shutdown":
                self.request_shutdown()
        except NodeCrashedError:
            pass  # client went away or fell silent mid-request; nothing to answer
        except Exception as exc:
            try:
                channel.send_msg(
                    ("error", {"type": type(exc).__name__, "message": str(exc)})
                )
            except NodeCrashedError:  # pragma: no cover - client gone too
                pass
        finally:
            channel.close()

    def _dispatch(self, verb: str, payload: dict) -> dict:
        service = self.service
        if verb == "ping":
            return {"pid": os.getpid(), "root": str(self.root)}
        if verb == "submit":
            matrix = payload["values"]
            if payload.get("var_names") is not None:
                from repro.datatypes import ExpressionMatrix

                matrix = ExpressionMatrix(matrix, var_names=payload["var_names"])
            job_id = service.submit(
                matrix,
                payload["config"],
                payload["seed"],
                priority=payload.get("priority", 0),
                use_checkpoints=payload.get("use_checkpoints", True),
            )
            return {"job_id": job_id}
        if verb == "status":
            return {"status": service.status(payload.get("job_id"))}
        if verb == "result":
            return {"result": service.result(payload["job_id"])}
        if verb == "cancel":
            return {"cancelled": service.cancel(payload["job_id"])}
        if verb == "stats":
            return {"stats": service.stats()}
        if verb == "shutdown":
            return {"ok": True}
        raise AssertionError(verb)  # pragma: no cover - guarded by _VERBS
