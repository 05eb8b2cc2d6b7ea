"""The always-on inference service: job queue, admission, warm executor.

One-shot ``learn()`` builds and tears down its whole world — pool,
shared-memory matrix, kernel memo tables — on every call.  The ROADMAP's
north star is a serving system, so this module hosts the long-lived
counterpart: an :class:`InferenceService` that owns ONE
:class:`repro.parallel.executor.TaskPoolExecutor` lease across many jobs
and answers repeat queries from two layers of warm state:

* **per-job checkpoint namespaces** — each job's content fingerprint
  (matrix bytes + result-relevant config + seed) names a directory under
  ``root/jobs/<fp>/checkpoints``, the job's checkpoint directory.  A
  resubmitted identical job loads Task 1 runs and Task 3 modules from
  disk instead of recomputing them — the warm-repeat path.
* **the executor lease** — while consecutive jobs share a binding
  (fingerprint + config), the pool and its shared-memory matrix are
  reused rather than rebuilt.

Jobs run one at a time on a single runner thread (parallelism lives
*inside* a job, on the pool); the queue is FIFO within a priority level,
higher priority first.  Admission control bounds queued + running jobs at
``max_inflight`` and refuses the rest with a typed
:class:`AdmissionRejected` so callers can back off instead of queueing
unboundedly.  A job whose pool worker dies fails with the executor's
typed :class:`~repro.parallel.executor.WorkerCrashedError` and
*invalidates the lease*: the next queued job gets a fresh pool, so one
crash never poisons the queue — crash-aware job isolation.

Bit-identity is the non-negotiable invariant: every layer of warm state
is content-addressed and checkpoint loads verify their fingerprints, so a
served network is always byte-for-byte the network a fresh one-shot
``learn()`` would produce.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.checkpoints import matrix_digest
from repro.core.config import LearnerConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_to_json
from repro.datatypes import ExpressionMatrix
from repro.parallel.trace import WorkTrace

# -- job states --------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class AdmissionRejected(RuntimeError):
    """The service's in-flight bound is full; resubmit after a completion."""


class JobNotFound(KeyError):
    """No job with the given id."""


class JobNotDone(RuntimeError):
    """The job has not finished yet (still queued or running)."""


class JobCancelled(RuntimeError):
    """The job was cancelled before it ran."""


class JobFailed(RuntimeError):
    """The job raised; ``error_type`` names the original exception type."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


class ServiceClosed(RuntimeError):
    """The service is shutting down and accepts no new jobs."""


# -- job specification -------------------------------------------------------


@dataclass
class JobSpec:
    """One inference request: the matrix, the learning knobs, the seed."""

    values: np.ndarray
    var_names: list[str]
    config: LearnerConfig
    seed: int
    priority: int = 0
    #: False runs the job without its checkpoint namespace (every unit
    #: recomputed); results are identical either way
    use_checkpoints: bool = True


def job_fingerprint(spec: JobSpec) -> str:
    """Content address of a job's *result*: matrix + seed + the config
    fields that can change the learned network.

    Parallel-execution knobs (worker counts, schedules, backends) are
    deliberately excluded — bit-identity across all of them is the repo's
    core invariant, so jobs differing only in execution backend share one
    fingerprint, one checkpoint namespace, and one warm path.  Checkpoint
    stores re-verify their own fingerprints on load, so even a colliding
    namespace could only ever ignore foreign files.
    """
    config = spec.config
    prior = config.prior
    meta = {
        "seed": spec.seed,
        "rng_backend": config.rng_backend,
        "n_ganesh_runs": config.n_ganesh_runs,
        "n_update_steps": config.n_update_steps,
        "init_var_clusters": config.init_var_clusters,
        "consensus_threshold": config.consensus_threshold,
        "max_modules": config.max_modules,
        "tree_update_steps": config.tree_update_steps,
        "tree_burn_in": config.tree_burn_in,
        "candidate_parents": (
            list(config.candidate_parents)
            if config.candidate_parents is not None
            else None
        ),
        "n_splits_per_node": config.n_splits_per_node,
        "max_sampling_steps": config.max_sampling_steps,
        "sampling_stop_repeats": config.sampling_stop_repeats,
        "beta_grid": list(config.beta_grid),
        "prior": [prior.mu0, prior.lambda0, prior.alpha0, prior.beta0],
        "shape": list(np.asarray(spec.values).shape),
        "matrix": matrix_digest(spec.values),
        "var_names": list(spec.var_names),
    }
    return hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()


@dataclass
class JobRecord:
    """The service-side lifecycle record of one submitted job."""

    job_id: str
    spec: JobSpec
    fingerprint: str
    seq: int
    state: str = QUEUED
    error: dict | None = None
    result: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    executor_reused: bool = False


# -- the executor lease ------------------------------------------------------


class ExecutorLease:
    """At most one live executor, rebound when the job binding changes.

    The binding is ``(job fingerprint, config, use_checkpoints)``: a
    matching consecutive job reuses the warm pool; a mismatch closes the
    old executor and builds the new job's.  :meth:`invalidate` is the
    crash-isolation hook — after a
    :class:`~repro.parallel.executor.WorkerCrashedError` the poisoned pool
    is discarded so the next job starts on a fresh one.  A worker's death
    reaches the job at once, as EOF on its socketpair channel; there is no
    detection interval to set.
    """

    def __init__(self) -> None:
        self._executor = None
        self._binding = None
        self.builds = 0
        self.reuses = 0
        self.invalidations = 0

    def acquire(self, data, config: LearnerConfig, seed: int, checkpoint_dir, binding):
        """The executor for ``binding`` — warm when it matches the live
        one, else freshly built through the same
        :func:`~repro.parallel.executor.open_executor` a one-shot ``learn``
        uses.  Returns ``(executor, reused)``."""
        if self._executor is not None and self._binding == binding:
            self.reuses += 1
            return self._executor, True
        self.release()
        from repro.parallel.executor import open_executor
        from repro.parallel.poolutil import THREADED_START_METHOD

        # The service process is inherently multi-threaded (runner thread,
        # daemon request handlers); forking here can capture a lock
        # mid-held and deadlock the child, so whatever the lease launches —
        # pool workers, shard nodes — always spawns.  The lease amortizes
        # the slower startup across every job it serves.
        self._executor = open_executor(
            data,
            config,
            seed,
            checkpoint_dir,
            mp_context=THREADED_START_METHOD,
        )
        self._binding = binding
        self.builds += 1
        return self._executor, False

    def worker_pids(self) -> list[int]:
        """PIDs of the live executor's processes: pool workers, or shard
        nodes and the workers they last reported ([] in-process)."""
        executor = self._executor
        return [] if executor is None else executor.worker_pids()

    def worker_inits(self) -> int:
        """How many pool workers answered their ``init`` frame (0 without
        a multi-worker pool).  A pool dispatches nothing before every
        worker has answered, so a job that is running has them all."""
        executor = self._executor
        return 0 if executor is None else executor.worker_inits()

    def invalidate(self) -> None:
        """Discard the live executor (a worker died inside it)."""
        self.invalidations += 1
        self.release()

    def release(self) -> None:
        executor, self._executor = self._executor, None
        self._binding = None
        if executor is not None:
            try:
                executor.close()
            except Exception:  # pragma: no cover - poisoned pool teardown
                pass


# -- the service -------------------------------------------------------------


class InferenceService:
    """Long-lived job daemon: async queue, admission control, warm state.

    ``root`` is the service's state directory (checkpoint namespaces live
    under ``root/jobs/``).  ``max_inflight`` bounds queued + running jobs;
    a submit beyond it raises :class:`AdmissionRejected`.

    ``autostart=False`` leaves the runner thread stopped until
    :meth:`start` — the deterministic admission/cancel test hook: jobs
    submitted while stopped stay queued.  A worker that dies under a job
    fails that job with the executor's typed error as soon as its channel
    reaches EOF (:class:`ExecutorLease`); nothing needs tuning for it.
    """

    def __init__(
        self,
        root,
        *,
        max_inflight: int = 4,
        autostart: bool = True,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_inflight = int(max_inflight)
        self.lease = ExecutorLease()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = 0
        self._closing = False
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected": 0,
        }
        self._runner = threading.Thread(
            target=self._run_loop, name="repro-service-runner", daemon=True
        )
        self._started = False
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Start the runner thread (idempotent)."""
        with self._wakeup:
            if self._started or self._closing:
                return
            self._started = True
        self._runner.start()

    def close(self) -> None:
        """Stop accepting jobs, cancel the queue, release the executor.

        The running job (if any) completes; queued jobs are cancelled.
        """
        with self._wakeup:
            if self._closing:
                return
            self._closing = True
            for record in self._jobs.values():
                if record.state == QUEUED:
                    record.state = CANCELLED
                    record.finished_at = time.time()
                    self.counters["cancelled"] += 1
            self._wakeup.notify_all()
        if self._started:
            self._runner.join(timeout=600.0)
        self.lease.release()

    # -- client surface ------------------------------------------------------
    def submit(
        self,
        matrix,
        config: LearnerConfig,
        seed: int,
        *,
        priority: int = 0,
        use_checkpoints: bool = True,
    ) -> str:
        """Enqueue one job; returns its id or raises
        :class:`AdmissionRejected` when the in-flight bound is full.

        ``matrix`` is an :class:`~repro.datatypes.ExpressionMatrix` or a
        raw ``(n, m)`` array.  The service owns checkpoint placement
        (per-job fingerprinted namespaces under its root).
        """
        if isinstance(matrix, ExpressionMatrix):
            values, var_names = matrix.values, list(matrix.var_names)
        else:
            values = np.asarray(matrix, dtype=np.float64)
            var_names = [f"G{i}" for i in range(values.shape[0])]
        spec = JobSpec(
            values=values,
            var_names=var_names,
            config=config,
            seed=int(seed),
            priority=int(priority),
            use_checkpoints=bool(use_checkpoints),
        )
        fingerprint = job_fingerprint(spec)
        with self._wakeup:
            if self._closing:
                raise ServiceClosed("service is shutting down")
            inflight = sum(
                1 for r in self._jobs.values() if r.state in (QUEUED, RUNNING)
            )
            if inflight >= self.max_inflight:
                self.counters["rejected"] += 1
                raise AdmissionRejected(
                    f"{inflight} job(s) in flight (bound {self.max_inflight}); "
                    "retry after a completion"
                )
            job_id = f"job-{self._seq:06d}"
            record = JobRecord(
                job_id=job_id, spec=spec, fingerprint=fingerprint, seq=self._seq
            )
            self._jobs[job_id] = record
            heapq.heappush(self._heap, (-spec.priority, self._seq, job_id))
            self._seq += 1
            self.counters["submitted"] += 1
            self._wakeup.notify_all()
        return job_id

    def status(self, job_id: str | None = None):
        """One job's status dict, or (with no id) all jobs in submit
        order."""
        with self._lock:
            if job_id is None:
                records = sorted(self._jobs.values(), key=lambda r: r.seq)
                return [self._describe(r) for r in records]
            return self._describe(self._record(job_id))

    def _record(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise JobNotFound(f"unknown job id {job_id!r}")
        return record

    def _describe(self, record: JobRecord) -> dict:
        out = {
            "job_id": record.job_id,
            "state": record.state,
            "priority": record.spec.priority,
            "fingerprint": record.fingerprint,
            "seed": record.spec.seed,
            "shape": list(record.spec.values.shape),
            "submitted_at": record.submitted_at,
            "started_at": record.started_at,
            "finished_at": record.finished_at,
            "executor_reused": record.executor_reused,
        }
        if record.error is not None:
            out["error"] = dict(record.error)
        if record.state == RUNNING:
            out["worker_pids"] = self.lease.worker_pids()
            out["worker_inits"] = self.lease.worker_inits()
        return out

    def result(self, job_id: str) -> dict:
        """The finished job's result payload; raises the job's typed
        terminal state otherwise."""
        with self._lock:
            record = self._record(job_id)
            if record.state == DONE:
                return record.result
            if record.state == FAILED:
                error = record.error or {}
                raise JobFailed(
                    error.get("type", "Exception"), error.get("message", "")
                )
            if record.state == CANCELLED:
                raise JobCancelled(f"job {job_id} was cancelled")
            raise JobNotDone(f"job {job_id} is {record.state}")

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Block until ``job_id`` reaches a terminal state, then behave
        like :meth:`result`."""
        deadline = time.monotonic() + timeout
        with self._wakeup:
            while True:
                record = self._record(job_id)
                if record.state in (DONE, FAILED, CANCELLED):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {record.state} after {timeout}s"
                    )
                self._wakeup.wait(min(remaining, 1.0))
        return self.result(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns False once it is already running
        or finished (the heap entry is skipped lazily by the runner)."""
        with self._wakeup:
            record = self._record(job_id)
            if record.state != QUEUED:
                return False
            record.state = CANCELLED
            record.finished_at = time.time()
            self.counters["cancelled"] += 1
            self._wakeup.notify_all()
            return True

    def stats(self) -> dict:
        """Service-level counters and lease behaviour."""
        with self._lock:
            out = dict(self.counters)
            out["n_jobs"] = len(self._jobs)
            out["max_inflight"] = self.max_inflight
        out["executor"] = {
            "builds": self.lease.builds,
            "reuses": self.lease.reuses,
            "invalidations": self.lease.invalidations,
        }
        return out

    # -- the runner ----------------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            with self._wakeup:
                record = self._pop_next()
                while record is None and not self._closing:
                    self._wakeup.wait(1.0)
                    record = self._pop_next()
                if record is None:
                    return
                record.state = RUNNING
                record.started_at = time.time()
            self._execute(record)
            with self._wakeup:
                self._wakeup.notify_all()

    def _pop_next(self) -> JobRecord | None:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            record = self._jobs[job_id]
            if record.state == QUEUED:
                return record
        return None

    def namespace_dir(self, fingerprint: str) -> Path:
        """The content-addressed checkpoint namespace of one job
        fingerprint."""
        return self.root / "jobs" / fingerprint[:16] / "checkpoints"

    def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        checkpoint_dir = (
            self.namespace_dir(record.fingerprint) if spec.use_checkpoints else None
        )
        binding = (record.fingerprint, spec.config, spec.use_checkpoints)
        trace = WorkTrace()
        t0 = time.perf_counter()
        try:
            # Inside the try: invalid payloads (NaN matrices, bad shapes)
            # must fail the *job*, never the runner thread.
            matrix = ExpressionMatrix(spec.values, var_names=spec.var_names)
            executor, reused = self.lease.acquire(
                matrix.values, spec.config, spec.seed, checkpoint_dir, binding
            )
            record.executor_reused = reused
            result = LemonTreeLearner(spec.config).learn(
                matrix,
                spec.seed,
                trace=trace,
                checkpoint_dir=checkpoint_dir,
                executor=executor,
            )
        except Exception as exc:
            if self._is_crash(exc):
                # Crash-aware isolation: the poisoned pool must not serve
                # the next queued job.
                self.lease.invalidate()
            with self._lock:
                record.state = FAILED
                record.error = {
                    "type": type(exc).__name__,
                    "message": str(exc),
                }
                record.finished_at = time.time()
                self.counters["failed"] += 1
            return

        from repro.validation.metrics import network_fingerprint

        payload = {
            "job_id": record.job_id,
            "job_fingerprint": record.fingerprint,
            "fingerprint": network_fingerprint(result.network),
            "network_json": network_to_json(result.network),
            "n_modules": result.network.n_modules,
            "seconds": time.perf_counter() - t0,
            "task_times": {
                "ganesh": result.task_times.ganesh,
                "consensus": result.task_times.consensus,
                "modules": result.task_times.modules,
            },
            "kernel_counters": dict(trace.kernel_counters),
            "executor_reused": record.executor_reused,
        }
        with self._lock:
            record.result = payload
            record.state = DONE
            record.finished_at = time.time()
            self.counters["completed"] += 1

    @staticmethod
    def _is_crash(exc: Exception) -> bool:
        from repro.parallel.executor import WorkerCrashedError
        from repro.parallel.sharding import NodeCrashedError

        return isinstance(exc, (WorkerCrashedError, NodeCrashedError))
