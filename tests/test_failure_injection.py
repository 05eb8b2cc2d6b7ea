"""Failure injection and degenerate-input behaviour."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.datatypes import ExpressionMatrix
from repro.parallel.comm import SpmdFailure, run_spmd
from repro.parallel.engine import ParallelLearner
from repro.parallel.executor import (
    TaskPoolExecutor,
    WorkerCrashedError,
    _ganesh_run,
)
from repro.parallel.topology import MachineTopology, available_cpus


class TestSpmdFailures:
    def test_one_rank_raising_reports_all(self):
        def fn(comm):
            comm.allreduce(1)
            if comm.rank == 1:
                raise ValueError("injected")
            # The surviving ranks block on the next collective; the abort
            # must release them rather than deadlock.
            comm.allreduce(2)

        with pytest.raises(SpmdFailure) as err:
            run_spmd(3, fn)
        ranks = [rank for rank, _ in err.value.errors]
        assert 1 in ranks

    def test_all_ranks_raising(self):
        def fn(comm):
            raise RuntimeError(f"rank {comm.rank}")

        with pytest.raises(SpmdFailure) as err:
            run_spmd(4, fn)
        assert len(err.value.errors) == 4

    def test_failure_message_readable(self):
        def fn(comm):
            if comm.rank == 0:
                raise KeyError("k")
            comm.barrier()

        with pytest.raises(SpmdFailure) as err:
            run_spmd(2, fn)
        assert "rank 0" in str(err.value)


def _exit_mid_run(ctx, item):
    """A task whose worker process dies outright partway through the
    batch (``os._exit`` skips all exception handling, like a kill -9)."""
    if item == 2:
        os._exit(1)
    return item


class TestWorkerDeath:
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_dead_worker_detected_not_hung(self, tiny_matrix, schedule):
        """mp.Pool silently respawns dead workers and would wait forever
        for the lost task; the executor must surface the crash instead."""
        config = LearnerConfig(max_sampling_steps=3, parallel=ParallelConfig(n_workers=2))
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        with TaskPoolExecutor(
            tiny_matrix.values, parents, config, 1, crash_poll_seconds=0.2,
        ) as executor:
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(
                    _exit_mid_run, list(range(6)), schedule=schedule
                )
            # The replacement worker re-ran the initializer: visible proof
            # of the death, and the mechanism the detector relies on.
            assert executor.worker_inits() > 2


def _two_domain_topology():
    cpu = available_cpus()[0]
    return MachineTopology(
        numa_domains=((cpu,), (cpu,)), l2_bytes=2 << 20, l3_bytes=16 << 20,
        source="sysfs",
    )


def _die_on_ganesh_zero(ctx, item):
    """Steal-dispatch test task: the worker running run 0 dies outright
    (``os._exit`` skips all handling, like a kill -9 mid-steal)."""
    g, want_trace = item
    if g == 0:
        os._exit(13)
    return _ganesh_run(ctx, item)


class TestStealDispatchCrash:
    """A worker dying while the domain-affine steal queues are live must
    surface the crash — never deadlock the victim domain's queue."""

    def _config(self, n_runs=1):
        return LearnerConfig(
            max_sampling_steps=3,
            n_ganesh_runs=n_runs,
            parallel=ParallelConfig(
                n_workers=2, topology=_two_domain_topology()
            ),
        )

    def test_mid_steal_crash_detected_not_hung(self, tiny_matrix):
        config = self._config()
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        with TaskPoolExecutor(
            tiny_matrix.values, parents, config, 1, crash_poll_seconds=0.2,
        ) as executor:
            assert executor.transport._steal_possible()
            with pytest.raises(WorkerCrashedError):
                # All items homed on domain 0: domain 1's worker reaches
                # them only by stealing, so the poisoned item can die in a
                # thief's hands — detection must not depend on which side
                # held the reservation.
                executor.submit_runs(
                    _exit_mid_run, list(range(6)), schedule="dynamic",
                    home_domains=[0] * 6,
                )
            assert executor.worker_inits() > 2  # a replacement spawned
            # The crash handler restored the queues/pending invariant:
            # nothing pending, so the victim domain's queue is not wedged.
            queues, pending, lock = executor.transport._steal_shared
            assert list(pending) == [0, 0]

    def test_resume_replays_only_unfinished_runs(self, tiny_matrix, tmp_path):
        """Kill a worker mid-steal-dispatch with checkpointing on: the
        surviving runs' checkpoints are valid and a resumed run replays
        only the lost runs (survivor files are never rewritten)."""
        n_runs = 4
        config = self._config(n_runs)
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        reference = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_workers=1))
        ).sample_clusterings(tiny_matrix, seed=1)

        with TaskPoolExecutor(
            tiny_matrix.values, parents, config, 1,
            checkpoint_dir=tmp_path, crash_poll_seconds=0.2,
        ) as executor:
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(
                    _die_on_ganesh_zero,
                    [(g, False) for g in range(n_runs)],
                    schedule="dynamic",
                    home_domains=[0] * n_runs,
                )
        names = {f.name for f in tmp_path.glob("ganesh_*.npz")}
        assert "ganesh_0.npz" not in names  # the poisoned run never landed
        assert names  # at least one survivor checkpointed
        survivor_stamps = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }

        samples = LemonTreeLearner(config).sample_clusterings(
            tiny_matrix, seed=1, checkpoint_dir=tmp_path
        )
        assert len(samples) == n_runs
        for got, want in zip(samples, reference):
            np.testing.assert_array_equal(got, want)
        for f in tmp_path.glob("ganesh_*.npz"):
            if f.name in survivor_stamps:
                assert f.stat().st_mtime_ns == survivor_stamps[f.name]


_KILL_RESUME_SCRIPT = """
import sys
from repro.core.learner import LemonTreeLearner
from repro.validation import get_scenario
from tests.test_failure_injection import _tie_heavy_setup

config, matrix = _tie_heavy_setup()
print("ready", flush=True)
LemonTreeLearner(config).learn(matrix, seed=5, checkpoint_dir=sys.argv[1])
"""


def _tie_heavy_setup():
    """The adversarial kill-and-resume workload: exact duplicate rows (the
    tie-heavy scenario) with enough GaneSH runs that checkpoints appear
    one by one while the run is still in flight."""
    from repro.core.config import LearnerConfig
    from repro.validation import get_scenario

    spec = get_scenario("duplicate-genes")
    config = LearnerConfig(
        n_ganesh_runs=8, n_update_steps=3, max_sampling_steps=4
    )
    return config, spec.generate(2, smoke=True).matrix


@pytest.mark.slow
class TestScenarioKillResume:
    def test_killed_learn_resumes_bit_identical(self, tmp_path):
        """SIGKILL a checkpointing learn() mid-flight on the tie-heavy
        scenario; the resumed run must produce exactly the network an
        uninterrupted run does (ties make any replay-order leak visible)."""
        config, matrix = _tie_heavy_setup()
        uninterrupted = LemonTreeLearner(config).learn(matrix, seed=5).network

        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_RESUME_SCRIPT, str(tmp_path)],
            stdout=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            # Kill as soon as the first GaneSH checkpoint lands — the run
            # is then provably mid-flight, with most work still pending.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if list(tmp_path.glob("ganesh_*.npz")) or proc.poll() is not None:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()

        survivors = {f.name for f in tmp_path.glob("ganesh_*.npz")}
        assert survivors  # the kill landed after work was checkpointed
        stamps = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }

        resumed = (
            LemonTreeLearner(config)
            .learn(matrix, seed=5, checkpoint_dir=tmp_path)
            .network
        )
        assert resumed == uninterrupted
        # Survivor checkpoints were reused, never rewritten.
        for f in tmp_path.glob("ganesh_*.npz"):
            if f.name in stamps:
                assert f.stat().st_mtime_ns == stamps[f.name]


class TestShardNodeDeath:
    """Failure injection on the multi-node shard tier: a SIGKILLed node
    process must surface as a typed ``NodeCrashedError`` (never a hang),
    and a restarted run must resume bit-identically from the checkpoints
    the surviving nodes wrote."""

    def test_dead_node_raises_typed_error(self, tiny_matrix, tmp_path):
        """Kill a node before dispatch: the driver detects the dead peer
        deterministically and raises the shard tier's typed error."""
        from repro.parallel.sharding import NodeCrashedError, ShardedExecutor

        config = LearnerConfig(
            n_ganesh_runs=4, max_sampling_steps=3,
            parallel=ParallelConfig(n_nodes=2, node_backend="socket"),
        )
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        with ShardedExecutor(
            tiny_matrix.values, parents, config, 1, checkpoint_dir=tmp_path
        ) as executor:
            executor.start()
            assert len(executor.node_pids) == 2
            os.kill(executor.node_pids[1], signal.SIGKILL)
            with pytest.raises(NodeCrashedError):
                executor.sample_ganesh_runs(4)
            # A crashed tier refuses further dispatches instead of
            # silently computing on the surviving subset.
            with pytest.raises(NodeCrashedError):
                executor.sample_ganesh_runs(4)

    @pytest.mark.slow
    def test_sigkill_mid_run_resumes_bit_identical(self, tmp_path):
        """SIGKILL one shard node while chains are in flight on the
        tie-heavy workload; the survivors' checkpoints must carry a
        restarted run to exactly the uninterrupted ensemble."""
        from repro.parallel.sharding import NodeCrashedError, ShardedExecutor

        config, matrix = _tie_heavy_setup()
        reference = LemonTreeLearner(config).sample_clusterings(
            matrix, seed=5
        )
        parents = np.asarray(range(matrix.n_vars), dtype=np.int64)

        executor = ShardedExecutor(
            matrix.values, parents,
            config.with_updates(
                parallel=ParallelConfig(n_nodes=2, node_backend="socket")
            ),
            5, checkpoint_dir=tmp_path,
        )
        killed = []

        def _kill_after_first_checkpoint():
            # Kill as soon as the first checkpoint lands — the run is
            # then provably mid-flight with most chains still pending.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if list(tmp_path.glob("ganesh_*.npz")):
                    break
                time.sleep(0.005)
            pid = executor.node_pids[1]
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

        try:
            executor.start()
            watcher = threading.Thread(
                target=_kill_after_first_checkpoint, daemon=True
            )
            watcher.start()
            with pytest.raises(NodeCrashedError):
                executor.sample_ganesh_runs(config.n_ganesh_runs)
            watcher.join(timeout=60.0)
        finally:
            executor.close()
        assert killed

        survivors = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }
        assert survivors  # the kill landed after work was checkpointed
        assert len(survivors) < config.n_ganesh_runs  # ... but mid-flight

        # The restarted (sequential) run replays only the lost chains and
        # reproduces the uninterrupted ensemble bit for bit.
        resumed = LemonTreeLearner(config).sample_clusterings(
            matrix, seed=5, checkpoint_dir=tmp_path
        )
        assert len(resumed) == config.n_ganesh_runs
        for got, want in zip(resumed, reference):
            np.testing.assert_array_equal(got, want)
        for f in tmp_path.glob("ganesh_*.npz"):
            if f.name in survivors:
                assert f.stat().st_mtime_ns == survivors[f.name]


def _children(pid: int) -> list[int]:
    """Child pids of ``pid`` as the kernel lists them (all its threads)."""
    out: list[int] = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            out.extend(int(child) for child in path.read_text().split())
        except OSError:  # the thread exited between glob and read
            pass
    return out


def _cpu_ticks(pid: int) -> int:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def _kill_busy_grandchild(node_pids, timeout: float = 120.0) -> int:
    """SIGKILL a pool worker *inside* a shard node while it is computing
    (its CPU time is advancing), so the task it holds is provably lost."""
    deadline = time.monotonic() + timeout
    seen: dict[int, int] = {}
    while time.monotonic() < deadline:
        for node_pid in node_pids:
            for pid in _children(node_pid):
                try:
                    ticks = _cpu_ticks(pid)
                except (OSError, IndexError):
                    continue
                if ticks >= seen.setdefault(pid, ticks) + 3:
                    os.kill(pid, signal.SIGKILL)
                    return pid
        time.sleep(0.01)
    raise AssertionError("no busy pool worker appeared under the shard nodes")


def _nested_crash_setup():
    """Two socket nodes x two pool workers each, on a job long enough for
    a worker to be caught mid-module."""
    from repro.data.synthetic import make_module_dataset

    matrix = make_module_dataset(120, 60, n_modules=8, seed=3).matrix
    config = LearnerConfig(
        n_ganesh_runs=4,
        n_update_steps=3,
        n_splits_per_node=3,
        parallel=ParallelConfig(n_workers=2, n_nodes=2, node_backend="socket"),
    )
    return matrix, config


@pytest.mark.slow
class TestNestedWorkerDeath:
    """A pool worker dying *inside* a shard node keeps its type on the way
    to the driver: the error frame re-raises as ``WorkerCrashedError``,
    not as a ``RuntimeError`` the service's crash isolation cannot see."""

    def test_grandchild_sigkill_raises_worker_crashed(self):
        from repro.parallel.sharding import ShardedExecutor

        matrix, config = _nested_crash_setup()
        learner = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_workers=1))
        )
        members = learner.consensus(learner.sample_clusterings(matrix, seed=9))
        parents = np.asarray(
            config.resolve_candidate_parents(matrix.n_vars), dtype=np.int64
        )
        with ShardedExecutor(matrix.values, parents, config, 9) as executor:
            executor.start()
            killer = threading.Thread(
                target=_kill_busy_grandchild, args=(executor.node_pids,),
                daemon=True,
            )
            killer.start()
            with pytest.raises(WorkerCrashedError, match="shard node"):
                executor.learn_modules(members)
            killer.join(timeout=120.0)
            assert not killer.is_alive()

    def test_service_isolates_nested_crash(self, tmp_path):
        from repro.scoring.kernel import set_shared_score_cache
        from repro.service import InferenceService, JobFailed
        from repro.validation.metrics import network_fingerprint

        matrix, config = _nested_crash_setup()
        oracle = network_fingerprint(
            LemonTreeLearner(
                config.with_updates(parallel=ParallelConfig(n_workers=1))
            ).learn(matrix, seed=9).network
        )
        previous = set_shared_score_cache(None)
        try:
            with InferenceService(
                tmp_path, max_inflight=4, score_cache_bytes=0
            ) as service:
                job = service.submit(matrix, config, 9, use_checkpoints=False)
                deadline = time.monotonic() + 120
                node_pids: list[int] = []
                while time.monotonic() < deadline and not node_pids:
                    row = service.status(job)
                    assert row["state"] in ("queued", "running"), row
                    # A sharded lease lists its node processes first.
                    node_pids = row.get("worker_pids", [])[:2]
                    time.sleep(0.01)
                assert len(node_pids) == 2, "job never reached running nodes"
                _kill_busy_grandchild(node_pids)

                with pytest.raises(JobFailed) as err:
                    service.wait(job, timeout=300)
                assert err.value.error_type == "WorkerCrashedError"
                assert service.lease.invalidations == 1

                job2 = service.submit(matrix, config, 9, use_checkpoints=False)
                payload = service.wait(job2, timeout=600)
                assert payload["fingerprint"] == oracle
                assert payload["executor_reused"] is False
        finally:
            set_shared_score_cache(previous)


class TestMissingDataRejection:
    """NaN matrices must be rejected loudly at the pipeline boundary."""

    def _nan_matrix(self):
        from repro.data.synthetic import make_module_dataset

        return make_module_dataset(12, 8, missing_rate=0.2, seed=0).matrix

    def test_learn_rejects_nan(self, fast_config):
        with pytest.raises(ValueError, match="impute_missing"):
            LemonTreeLearner(fast_config).learn(self._nan_matrix(), seed=1)

    def test_sample_clusterings_rejects_nan(self, fast_config):
        with pytest.raises(ValueError, match="missing"):
            LemonTreeLearner(fast_config).sample_clusterings(
                self._nan_matrix(), seed=1
            )

    def test_learn_from_modules_rejects_nan(self, fast_config):
        with pytest.raises(ValueError, match="missing"):
            LemonTreeLearner(fast_config).learn_from_modules(
                self._nan_matrix(), [[0, 1, 2]], seed=1
            )

    def test_imputed_matrix_learns(self, fast_config):
        matrix = self._nan_matrix().impute_missing()
        result = LemonTreeLearner(fast_config).learn(matrix, seed=1)
        assert sum(m.size for m in result.network.modules) == matrix.n_vars

    def test_suffstats_reject_nan(self):
        from repro.scoring.suffstats import StatsArrays, SuffStats

        with pytest.raises(ValueError, match="NaN"):
            SuffStats.of(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="NaN"):
            StatsArrays.grouped(
                np.array([1.0, np.nan, 2.0]),
                np.array([0, 0, 1], dtype=np.int64),
                2,
            )


class TestDegenerateData:
    def test_constant_matrix(self, fast_config):
        """All-equal values: scores degenerate but nothing crashes and the
        output is a complete partition."""
        matrix = ExpressionMatrix(np.ones((10, 8)))
        result = LemonTreeLearner(fast_config).learn(matrix, seed=1)
        assert sum(m.size for m in result.network.modules) == 10

    def test_constant_matrix_parallel_consistent(self, fast_config):
        matrix = ExpressionMatrix(np.full((8, 6), 3.14))
        sequential = LemonTreeLearner(fast_config).learn(matrix, seed=2)
        parallel = ParallelLearner(fast_config).learn(matrix, seed=2, p=2)
        assert parallel.network == sequential.network

    def test_single_variable_rows_duplicated(self, fast_config):
        """Identical rows must all land in modules (ties everywhere)."""
        row = np.linspace(-1, 1, 9)
        matrix = ExpressionMatrix(np.tile(row, (6, 1)))
        result = LemonTreeLearner(fast_config).learn(matrix, seed=3)
        assert result.network.n_modules >= 1

    def test_tiny_matrix(self, fast_config):
        matrix = ExpressionMatrix(np.random.default_rng(0).normal(size=(4, 4)))
        result = LemonTreeLearner(fast_config).learn(matrix, seed=4)
        assert result.network.n_vars == 4

    def test_extreme_magnitudes(self, fast_config):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 8)) * 1e6 + 1e8
        matrix = ExpressionMatrix(values)
        result = LemonTreeLearner(fast_config).learn(matrix, seed=5)
        for module in result.network.modules:
            for score in module.weighted_parents.values():
                assert np.isfinite(score)

    def test_mixed_scales(self, fast_config):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(10, 8))
        values[0] *= 1e-8
        values[1] *= 1e8
        result = LemonTreeLearner(fast_config).learn(
            ExpressionMatrix(values), seed=6
        )
        assert result.network.n_modules >= 1

    def test_single_ganesh_cluster_config(self):
        """K0 = 1: everything starts in one cluster; reassignment can still
        split it via the fresh-cluster option."""
        config = LearnerConfig(init_var_clusters=1, max_sampling_steps=3)
        matrix = ExpressionMatrix(
            np.vstack([np.zeros((5, 10)), np.ones((5, 10)) * 9])
            + np.random.default_rng(3).normal(0, 0.1, size=(10, 10))
        )
        result = LemonTreeLearner(config).learn(matrix, seed=7)
        assert result.network.n_modules >= 1


class TestInitClusterResolution:
    def test_fraction(self):
        assert LearnerConfig(init_var_clusters=0.25).resolve_init_clusters(100) == 25

    def test_absolute(self):
        assert LearnerConfig(init_var_clusters=7).resolve_init_clusters(100) == 7

    def test_default_half(self):
        assert LearnerConfig().resolve_init_clusters(100) == 50

    def test_clamped_to_n(self):
        assert LearnerConfig(init_var_clusters=500).resolve_init_clusters(10) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LearnerConfig(init_var_clusters=0).resolve_init_clusters(10)
        with pytest.raises(ValueError):
            LearnerConfig(init_var_clusters=-0.5).resolve_init_clusters(10)

    def test_fraction_floor_is_one(self):
        assert LearnerConfig(init_var_clusters=0.001).resolve_init_clusters(10) == 1


# -- daemon crash isolation ---------------------------------------------------
#
# The always-on service must contain worker death to the job it struck:
# the job fails with the executor's typed error, the lease discards the
# poisoned pool, and the next queued job completes bit-identically on a
# fresh one.


def _daemon_job_config(workers: int = 2) -> LearnerConfig:
    """A multi-second job (so a worker can be killed mid-flight)."""
    return LearnerConfig(
        n_ganesh_runs=4,
        n_update_steps=3,
        n_splits_per_node=3,
        parallel=ParallelConfig(n_workers=workers),
    )


class TestDaemonCrashIsolation:
    @pytest.fixture(autouse=True)
    def _isolated_store(self):
        """The shared score store is process-global; the service installs
        one on construction, so reset around every test here to keep the
        rest of the suite's kernel counters untouched."""
        from repro.scoring.kernel import (
            consume_kernel_totals,
            set_shared_score_cache,
        )

        previous = set_shared_score_cache(None)
        consume_kernel_totals()
        yield
        set_shared_score_cache(previous)
        consume_kernel_totals()

    @pytest.mark.slow
    def test_sigkilled_worker_fails_job_next_job_bit_identical(self, tmp_path):
        from repro.data.synthetic import make_module_dataset
        from repro.service import InferenceService, JobFailed
        from repro.validation.metrics import network_fingerprint

        matrix = make_module_dataset(120, 60, n_modules=8, seed=3).matrix
        config = _daemon_job_config()
        oracle = network_fingerprint(
            LemonTreeLearner(
                config.with_updates(parallel=ParallelConfig(n_workers=1))
            ).learn(matrix, seed=9).network
        )
        with InferenceService(
            tmp_path, max_inflight=4, score_cache_bytes=0,
            crash_poll_seconds=0.2,
        ) as service:
            job = service.submit(matrix, config, 9, use_checkpoints=False)
            deadline = time.monotonic() + 60
            pids: list[int] = []
            while time.monotonic() < deadline:
                row = service.status(job)
                pids = row.get("worker_pids", [])
                # Wait for every (spawn-context) worker to finish booting:
                # killing one mid-import loses no task, the pool respawns
                # it, and the job would legitimately succeed.
                if (
                    row["state"] == "running"
                    and pids
                    and row.get("worker_inits", 0) >= 2
                ):
                    break
                if row["state"] in ("done", "failed"):
                    break
                time.sleep(0.01)
            assert pids, "job never reached a running pool"
            time.sleep(0.3)  # let the booted workers dequeue real work
            os.kill(pids[0], signal.SIGKILL)

            with pytest.raises(JobFailed) as err:
                service.wait(job, timeout=120)
            assert err.value.error_type == "WorkerCrashedError"
            assert service.status(job)["state"] == "failed"
            # The poisoned pool was discarded.
            assert service.stats()["executor"]["invalidations"] == 1

            # The NEXT job gets a fresh pool and the exact oracle network.
            job2 = service.submit(matrix, config, 9, use_checkpoints=False)
            payload = service.wait(job2, timeout=300)
            assert payload["fingerprint"] == oracle
            assert payload["executor_reused"] is False

    def test_admission_rejection_is_typed_and_recoverable(self, tiny_matrix, tmp_path):
        from repro.service import AdmissionRejected, InferenceService

        config = LearnerConfig(
            max_sampling_steps=5, parallel=ParallelConfig(n_workers=1)
        )
        service = InferenceService(tmp_path, max_inflight=2, autostart=False)
        try:
            kept = service.submit(tiny_matrix, config, 1)
            service.submit(tiny_matrix, config, 2)
            with pytest.raises(AdmissionRejected):
                service.submit(tiny_matrix, config, 3)
            # Rejection leaves the queue intact: both admitted jobs run.
            service.start()
            assert service.wait(kept, timeout=300)["fingerprint"]
        finally:
            service.close()

    def test_cancel_mid_queue_skips_only_the_cancelled_job(self, tiny_matrix, tmp_path):
        from repro.service import InferenceService, JobCancelled

        config = LearnerConfig(
            max_sampling_steps=5, parallel=ParallelConfig(n_workers=1)
        )
        service = InferenceService(tmp_path, max_inflight=8, autostart=False)
        try:
            first = service.submit(tiny_matrix, config, 1)
            doomed = service.submit(tiny_matrix, config, 2)
            last = service.submit(tiny_matrix, config, 3)
            assert service.cancel(doomed) is True
            service.start()
            assert service.wait(first, timeout=300)["fingerprint"]
            assert service.wait(last, timeout=300)["fingerprint"]
            with pytest.raises(JobCancelled):
                service.result(doomed)
            assert service.status(doomed)["state"] == "cancelled"
        finally:
            service.close()
