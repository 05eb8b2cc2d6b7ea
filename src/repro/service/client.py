"""Client side of the inference-service socket protocol.

:class:`ServiceClient` is a thin, connection-per-request wrapper over the
daemon's frame protocol: each verb opens a fresh localhost connection,
sends one ``(verb, payload)`` frame (token included), and maps the reply
back — ``("ok", body)`` to a return value, ``("error", ...)`` to the
typed exception the daemon raised (:class:`~repro.service.jobs.
AdmissionRejected` surfaces as itself, a failed job's error as
:class:`~repro.service.jobs.JobFailed`, and so on).  Because every call
is self-contained, clients are trivially thread-safe: the concurrent-
client battery drives one shared instance from N threads.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path

import numpy as np

from repro.datatypes import ExpressionMatrix
from repro.parallel.poolutil import NodeCrashedError, SocketChannel
from repro.service.jobs import (
    DONE,
    FAILED,
    CANCELLED,
    AdmissionRejected,
    JobCancelled,
    JobFailed,
    JobNotDone,
    JobNotFound,
    ServiceClosed,
)


class ServiceError(RuntimeError):
    """The daemon answered with an error the client has no type for."""


class AuthError(ServiceError):
    """The daemon rejected our token."""


#: daemon-side exception type -> client-side exception class
_ERROR_TYPES = {
    "AdmissionRejected": AdmissionRejected,
    "JobNotFound": JobNotFound,
    "JobNotDone": JobNotDone,
    "JobCancelled": JobCancelled,
    "JobFailed": JobFailed,
    "ServiceClosed": ServiceClosed,
    "AuthError": AuthError,
}


class ServiceClient:
    """Talk to a running :class:`~repro.service.daemon.ServiceDaemon`."""

    def __init__(
        self, host: str, port: int, token: str, *, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.token = token
        self.timeout = timeout

    @classmethod
    def from_dir(cls, root, *, timeout: float = 60.0) -> "ServiceClient":
        """Bootstrap from the ``endpoint.json`` a daemon wrote in
        ``root``."""
        endpoint = Path(root) / "endpoint.json"
        if not endpoint.exists():
            raise FileNotFoundError(
                f"no endpoint.json under {root!s} — is the daemon running?"
            )
        info = json.loads(endpoint.read_text())
        return cls(info["host"], info["port"], info["token"], timeout=timeout)

    # -- protocol ------------------------------------------------------------
    def _call(self, verb: str, **payload):
        payload["token"] = self.token
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from exc
        channel = SocketChannel(sock, peer="service")
        try:
            channel.send_msg((verb, payload))
            tag, body = channel.recv_msg()
        except NodeCrashedError as exc:
            raise ServiceError(f"service connection lost: {exc}") from exc
        finally:
            channel.close()
        if tag == "ok":
            return body
        if tag == "error":
            error_type = body.get("type", "ServiceError")
            message = body.get("message", "")
            if error_type == "JobFailed":
                # Re-wrap so error_type survives the wire round-trip.
                head, _, rest = message.partition(": ")
                raise JobFailed(head or "Exception", rest or message)
            exc_cls = _ERROR_TYPES.get(error_type)
            if exc_cls is not None:
                raise exc_cls(message)
            raise ServiceError(f"{error_type}: {message}")
        raise ServiceError(f"malformed reply tag {tag!r}")

    # -- verbs ---------------------------------------------------------------
    def ping(self) -> dict:
        return self._call("ping")

    def submit(
        self,
        matrix,
        config,
        seed: int,
        *,
        priority: int = 0,
        use_checkpoints: bool = True,
    ) -> str:
        """Submit one job; returns its id (raises
        :class:`AdmissionRejected` when the daemon's bound is full)."""
        if isinstance(matrix, ExpressionMatrix):
            values, var_names = matrix.values, list(matrix.var_names)
        else:
            values, var_names = np.asarray(matrix, dtype=np.float64), None
        body = self._call(
            "submit",
            values=values,
            var_names=var_names,
            config=config,
            seed=int(seed),
            priority=int(priority),
            use_checkpoints=bool(use_checkpoints),
        )
        return body["job_id"]

    def status(self, job_id: str | None = None):
        body = self._call("status", job_id=job_id)
        return body["status"]

    def result(self, job_id: str) -> dict:
        return self._call("result", job_id=job_id)["result"]

    def cancel(self, job_id: str) -> bool:
        return self._call("cancel", job_id=job_id)["cancelled"]

    def stats(self) -> dict:
        return self._call("stats")["stats"]

    def shutdown(self) -> None:
        self._call("shutdown")

    def wait(self, job_id: str, *, timeout: float = 600.0, poll: float = 0.05) -> dict:
        """Poll until ``job_id`` is terminal, then behave like
        :meth:`result`."""
        deadline = time.monotonic() + timeout
        while True:
            state = self.status(job_id)["state"]
            if state in (DONE, FAILED, CANCELLED):
                return self.result(job_id)
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {state} after {timeout}s")
            time.sleep(poll)
