"""Service-grade battery for the always-on inference daemon.

The tentpole invariant: a network served by the daemon — from any mix of
concurrent clients, on either RNG backend, on one worker or two, with
checkpoints on or off — is bit-identical (by
:func:`~repro.validation.metrics.network_fingerprint`) to a fresh
one-shot ``learn()`` of the same job.  Everything else here (admission
control, FIFO-with-priority dispatch, cancel semantics, the socket
protocol, the CLI verbs) is the service machinery around that invariant.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_from_json
from repro.service import (
    AdmissionRejected,
    InferenceService,
    JobCancelled,
    JobNotFound,
    ServiceClient,
    ServiceDaemon,
    job_fingerprint,
)
from repro.service.jobs import JobSpec
from repro.validation.metrics import network_fingerprint

needs_native = pytest.mark.skipif(
    _native.load() is None,
    reason=f"native backend unavailable ({_native.availability()['status']})",
)


def _config(workers: int = 1, rng_backend: str = "philox") -> LearnerConfig:
    return LearnerConfig(
        max_sampling_steps=5,
        rng_backend=rng_backend,
        parallel=ParallelConfig(n_workers=workers),
    )


def _oracle_fingerprint(matrix, config, seed) -> str:
    """A fresh one-shot learn in this process — the bit-identity bar."""
    result = LemonTreeLearner(config).learn(matrix, seed)
    return network_fingerprint(result.network)


class TestBitIdentity:
    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_served_equals_one_shot(
        self, tiny_matrix, tmp_path, rng_backend, workers
    ):
        config = _config(workers, rng_backend=rng_backend)
        oracle = _oracle_fingerprint(tiny_matrix, config, seed=7)
        with InferenceService(tmp_path, max_inflight=4) as service:
            for use_checkpoints in (True, False):
                job = service.submit(
                    tiny_matrix, config, 7, use_checkpoints=use_checkpoints
                )
                assert service.wait(job)["fingerprint"] == oracle

    def test_warm_repeat_identical_across_worker_counts(
        self, tiny_matrix, tmp_path
    ):
        oracle = _oracle_fingerprint(tiny_matrix, _config(), seed=7)
        with InferenceService(tmp_path, max_inflight=4) as service:
            for workers in (1, 2, 1):
                job = service.submit(tiny_matrix, _config(workers), 7)
                payload = service.wait(job)
                assert payload["fingerprint"] == oracle

    def test_distinct_seeds_distinct_namespaces(self, tiny_matrix, tmp_path):
        with InferenceService(tmp_path, max_inflight=4) as service:
            j1 = service.submit(tiny_matrix, _config(), 7)
            j2 = service.submit(tiny_matrix, _config(), 8)
            r1, r2 = service.wait(j1), service.wait(j2)
            assert r1["job_fingerprint"] != r2["job_fingerprint"]
            assert r1["fingerprint"] != r2["fingerprint"]


class TestConcurrentClients:
    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overlapping_submissions_bit_identical(
        self, tiny_matrix, tmp_path, rng_backend, workers
    ):
        """N threads race overlapping jobs on the same matrix; every
        result matches the fresh one-shot oracle for its (seed, config)."""
        seeds = [7, 7, 8, 7, 8]
        config = _config(workers, rng_backend=rng_backend)
        oracles = {
            seed: _oracle_fingerprint(tiny_matrix, config, seed)
            for seed in set(seeds)
        }
        results: dict[int, str] = {}
        errors: list[Exception] = []
        with InferenceService(tmp_path, max_inflight=len(seeds)) as service:

            def client(idx: int, seed: int) -> None:
                try:
                    job = service.submit(tiny_matrix, config, seed)
                    results[idx] = service.wait(job)["fingerprint"]
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i, seed))
                for i, seed in enumerate(seeds)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        assert not errors
        assert len(results) == len(seeds)
        for idx, seed in enumerate(seeds):
            assert results[idx] == oracles[seed]


class TestAdmissionControl:
    def test_rejects_beyond_bound(self, tiny_matrix, tmp_path):
        # autostart=False: nothing dequeues, so admission is deterministic.
        service = InferenceService(tmp_path, max_inflight=2, autostart=False)
        try:
            service.submit(tiny_matrix, _config(), 1)
            service.submit(tiny_matrix, _config(), 2)
            with pytest.raises(AdmissionRejected):
                service.submit(tiny_matrix, _config(), 3)
            assert service.counters["rejected"] == 1
        finally:
            service.close()

    def test_slot_frees_after_completion(self, tiny_matrix, tmp_path):
        with InferenceService(tmp_path, max_inflight=1) as service:
            job = service.submit(tiny_matrix, _config(), 7)
            service.wait(job)
            # The finished job no longer occupies the single slot.
            job2 = service.submit(tiny_matrix, _config(), 8)
            service.wait(job2)

    def test_priority_order_within_queue(self, tiny_matrix, tmp_path):
        service = InferenceService(tmp_path, max_inflight=8, autostart=False)
        try:
            low1 = service.submit(tiny_matrix, _config(), 1, priority=0)
            high = service.submit(tiny_matrix, _config(), 2, priority=5)
            low2 = service.submit(tiny_matrix, _config(), 3, priority=0)
            service.start()
            done = [service.wait(j) for j in (low1, high, low2)]
            order = sorted(done, key=lambda p: p["job_id"])
            finished = {p["job_id"]: p for p in done}
            # The high-priority job started before the FIFO tail.
            assert (
                service.status(high)["started_at"]
                <= service.status(low2)["started_at"]
            )
            assert all(p["fingerprint"] for p in order)
            assert finished[low1]["fingerprint"]
        finally:
            service.close()


class TestCancel:
    def test_cancel_queued_job(self, tiny_matrix, tmp_path):
        service = InferenceService(tmp_path, max_inflight=4, autostart=False)
        try:
            job = service.submit(tiny_matrix, _config(), 7)
            assert service.cancel(job) is True
            assert service.status(job)["state"] == "cancelled"
            with pytest.raises(JobCancelled):
                service.result(job)
            # Cancelled jobs never run once the runner starts.
            service.start()
            other = service.submit(tiny_matrix, _config(), 8)
            service.wait(other)
            assert service.status(job)["state"] == "cancelled"
        finally:
            service.close()

    def test_cancel_finished_job_is_noop(self, tiny_matrix, tmp_path):
        with InferenceService(tmp_path, max_inflight=4) as service:
            job = service.submit(tiny_matrix, _config(), 7)
            service.wait(job)
            assert service.cancel(job) is False
            assert service.status(job)["state"] == "done"

    def test_unknown_job_typed_error(self, tmp_path):
        with InferenceService(tmp_path, max_inflight=1) as service:
            with pytest.raises(JobNotFound):
                service.result("job-999999")
            with pytest.raises(JobNotFound):
                service.cancel("job-999999")


class TestJobFingerprint:
    def _spec(self, matrix, config, seed) -> JobSpec:
        return JobSpec(
            values=matrix.values,
            var_names=list(matrix.var_names),
            config=config,
            seed=seed,
        )

    def test_execution_knobs_share_a_fingerprint(self, tiny_matrix):
        """Jobs differing only in placement knobs are the same job: they
        share one checkpoint namespace and one warm path."""
        base = job_fingerprint(self._spec(tiny_matrix, _config(1), 7))
        pooled = job_fingerprint(self._spec(tiny_matrix, _config(2), 7))
        assert base == pooled

    def test_result_knobs_split_fingerprints(self, tiny_matrix):
        base = job_fingerprint(self._spec(tiny_matrix, _config(), 7))
        assert base != job_fingerprint(self._spec(tiny_matrix, _config(), 8))
        assert base != job_fingerprint(
            self._spec(tiny_matrix, _config(rng_backend="mrg"), 7)
        )
        other = LearnerConfig(
            max_sampling_steps=5, n_splits_per_node=3,
            parallel=ParallelConfig(n_workers=1),
        )
        assert base != job_fingerprint(self._spec(tiny_matrix, other, 7))

    def test_matrix_content_splits_fingerprints(self, tiny_matrix):
        base = job_fingerprint(self._spec(tiny_matrix, _config(), 7))
        bumped = tiny_matrix.values.copy()
        bumped[0, 0] += 1e-9
        spec = JobSpec(
            values=bumped,
            var_names=list(tiny_matrix.var_names),
            config=_config(),
            seed=7,
        )
        assert base != job_fingerprint(spec)


class TestWarmPath:
    def test_checkpointed_repeat_is_warm(self, tiny_matrix, tmp_path):
        with InferenceService(tmp_path, max_inflight=4) as service:
            cold = service.wait(service.submit(tiny_matrix, _config(), 7))
            warm = service.wait(service.submit(tiny_matrix, _config(), 7))
            assert warm["fingerprint"] == cold["fingerprint"]
            # The warm repeat loads Task 1 and Task 3 from the namespace.
            assert warm["seconds"] < cold["seconds"]
            ns = service.namespace_dir(cold["job_fingerprint"])
            assert ns.exists() and any(ns.iterdir())

    @needs_native
    @pytest.mark.parametrize("use_checkpoints", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_served_job_shares_margin_rows(
        self, tiny_matrix, tmp_path, workers, use_checkpoints
    ):
        """A served job takes the native batch entry, as a one-shot
        ``learn()`` does: its tree nodes read shared margin rows, so fewer
        rows are filled than read."""
        config = LearnerConfig(
            max_sampling_steps=5,
            parallel=ParallelConfig(n_workers=workers, kernel_backend="native"),
        )
        with InferenceService(tmp_path, max_inflight=4) as service:
            payload = service.wait(
                service.submit(
                    tiny_matrix, config, 7, use_checkpoints=use_checkpoints
                )
            )
        counters = payload["kernel_counters"]
        assert counters["backends"] == ["native"]
        assert 0 < counters["margin_rows_filled"] < counters["margin_row_uses"]

    def test_executor_lease_reused_for_identical_jobs(
        self, tiny_matrix, tmp_path
    ):
        with InferenceService(tmp_path, max_inflight=4) as service:
            config = _config(workers=2)
            r1 = service.wait(service.submit(tiny_matrix, config, 7))
            r2 = service.wait(service.submit(tiny_matrix, config, 7))
            assert r1["executor_reused"] is False
            assert r2["executor_reused"] is True
            assert service.stats()["executor"]["reuses"] == 1


class TestDaemonProtocol:
    def test_socket_round_trip(self, tiny_matrix, tmp_path):
        config = _config()
        oracle = _oracle_fingerprint(tiny_matrix, config, seed=7)
        with ServiceDaemon(tmp_path, max_inflight=4) as daemon:
            client = ServiceClient.from_dir(tmp_path)
            assert client.ping()["pid"] > 0
            job = client.submit(tiny_matrix, config, 7)
            payload = client.wait(job, timeout=300)
            assert payload["fingerprint"] == oracle
            network = network_from_json(payload["network_json"])
            assert network_fingerprint(network) == oracle
            rows = client.status()
            assert [r["job_id"] for r in rows] == [job]
            stats = client.stats()
            assert stats["completed"] == 1
            assert "score_cache" not in stats

    def test_typed_errors_cross_the_wire(self, tiny_matrix, tmp_path):
        with ServiceDaemon(tmp_path, max_inflight=4) as daemon:
            client = ServiceClient.from_dir(tmp_path)
            with pytest.raises(JobNotFound):
                client.result("job-424242")
            # A NaN matrix fails at execution; the error arrives typed.
            bad = tiny_matrix.values.copy()
            bad[0, 0] = np.nan
            from repro.service import JobFailed

            job = client.submit(bad, config=_config(), seed=7)
            with pytest.raises(JobFailed) as err:
                client.wait(job, timeout=120)
            assert err.value.error_type == "ValueError"

    def test_bad_token_rejected(self, tiny_matrix, tmp_path):
        from repro.service import AuthError

        with ServiceDaemon(tmp_path, max_inflight=1) as daemon:
            client = ServiceClient(daemon.host, daemon.port, "wrong-token")
            with pytest.raises(AuthError):
                client.ping()

    def test_shutdown_verb_stops_daemon(self, tmp_path):
        daemon = ServiceDaemon(tmp_path, max_inflight=1)
        daemon.start()
        client = ServiceClient.from_dir(tmp_path)
        client.shutdown()
        daemon.serve_forever()  # returns promptly once shutdown is requested
        assert not daemon.endpoint_path.exists()


class TestCliVerbs:
    def test_serve_submit_status_shutdown(self, tiny_matrix, tmp_path):
        """The CLI round trip against an in-process daemon: submit --wait,
        status, result, cancel, shutdown."""
        from repro.cli import main

        from repro.data.io import write_expression_tsv

        tsv = tmp_path / "expr.tsv"
        write_expression_tsv(tiny_matrix, tsv)
        run = tmp_path / "run"
        with ServiceDaemon(run, max_inflight=4) as daemon:
            out1 = tmp_path / "net1.json"
            assert main([
                "submit", "--service", str(run), "--input", str(tsv),
                "--seed", "7", "--sampling-steps", "5",
                "--wait", "--out-json", str(out1),
            ]) == 0
            out2 = tmp_path / "net2.json"
            assert main([
                "submit", "--service", str(run), "--input", str(tsv),
                "--seed", "7", "--sampling-steps", "5",
                "--wait", "--out-json", str(out2),
            ]) == 0
            assert out1.read_text() == out2.read_text()
            assert main(["status", "--service", str(run)]) == 0
            assert main([
                "result", "--service", str(run), "--job", "job-000000",
            ]) == 0
            # Nothing queued: cancel reports not-cancellable via exit code.
            assert main([
                "cancel", "--service", str(run), "--job", "job-000000",
            ]) == 1
            assert main(["shutdown", "--service", str(run)]) == 0
