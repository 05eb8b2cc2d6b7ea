"""Always-on inference service: persistent job daemon.

Layers (bottom up):

* :mod:`repro.service.jobs` — the in-process service core:
  :class:`InferenceService` (job queue, admission control, executor
  lease, crash isolation; warm state is the per-job checkpoint namespace
  and the lease).
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — the
  localhost socket front-end (``repro serve``) and its client.
"""

from repro.service.client import AuthError, ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    AdmissionRejected,
    ExecutorLease,
    InferenceService,
    JobCancelled,
    JobFailed,
    JobNotDone,
    JobNotFound,
    JobSpec,
    ServiceClosed,
    job_fingerprint,
)

__all__ = [
    "AdmissionRejected",
    "AuthError",
    "CANCELLED",
    "DONE",
    "ExecutorLease",
    "FAILED",
    "InferenceService",
    "JobCancelled",
    "JobFailed",
    "JobNotDone",
    "JobNotFound",
    "JobSpec",
    "QUEUED",
    "RUNNING",
    "ServiceClient",
    "ServiceClosed",
    "ServiceDaemon",
    "ServiceError",
    "job_fingerprint",
]
