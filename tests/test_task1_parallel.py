"""Distributed Task 1: pool-parallel GaneSH on the task-pool executor.

The contracts under test (the paper's Section 4.2 consistency property
applied to Task 1, plus the resume/failure semantics of the executor):

* the parallel G-run ensemble is bit-identical to the sequential learner
  for every worker count, both RNG backends, and any dispatch/completion
  order (exercised via the executor's ``dispatch_order_hook``);
* a run interrupted after k of G checkpoints re-executes only the G-k
  missing runs and produces the identical consensus modules;
* a worker process dying mid-run surfaces as ``WorkerCrashedError`` (not
  a hang), leaves the completed checkpoints valid, and the retry resumes
  from them;
* one ``learn`` call constructs one pool and ships the matrix once even
  when Tasks 1 and 3 both ride the executor.
"""

import os

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.checkpoints import CheckpointStore
from repro.core.learner import LemonTreeLearner
from repro.parallel import poolutil
from repro.parallel.executor import (
    TaskPoolExecutor,
    TaskScheduler,
    WorkerCrashedError,
    _ganesh_run,
)
from repro.parallel.trace import WorkTrace
from tests.conftest import TRANSPORTS


G_RUNS = 5
SEED = 17


@pytest.fixture(scope="module")
def setup(request):
    from repro.data.synthetic import make_module_dataset

    matrix = make_module_dataset(24, 12, n_modules=3, seed=42).matrix
    config = LearnerConfig(n_ganesh_runs=G_RUNS, max_sampling_steps=5)
    reference = LemonTreeLearner(config).sample_clusterings(matrix, seed=SEED)
    return matrix, config, reference


def _parents(matrix, config):
    return np.asarray(config.resolve_candidate_parents(matrix.n_vars), np.int64)


def _assert_same_ensemble(samples, reference):
    assert len(samples) == len(reference)
    for got, want in zip(samples, reference):
        np.testing.assert_array_equal(got, want)


class TestEquivalence:
    @pytest.mark.parametrize(
        "n_workers", [1, 2, pytest.param(4, marks=pytest.mark.slow)]
    )
    def test_bit_identical_across_worker_counts(self, setup, n_workers):
        matrix, config, reference = setup
        cfg = config.with_updates(parallel=ParallelConfig(n_workers=n_workers))
        samples = LemonTreeLearner(cfg).sample_clusterings(matrix, seed=SEED)
        _assert_same_ensemble(samples, reference)

    @pytest.mark.parametrize(
        "n_workers", [2, pytest.param(4, marks=pytest.mark.slow)]
    )
    def test_bit_identical_mrg_backend(self, setup, n_workers):
        matrix, config, _ = setup
        cfg = config.with_updates(rng_backend="mrg")
        reference = LemonTreeLearner(cfg).sample_clusterings(matrix, seed=SEED)
        samples = LemonTreeLearner(
            cfg.with_updates(parallel=ParallelConfig(n_workers=n_workers))
        ).sample_clusterings(matrix, seed=SEED)
        _assert_same_ensemble(samples, reference)

    @pytest.mark.parametrize("permute", ["reverse", "shuffle"])
    def test_out_of_order_dispatch(self, setup, permute):
        """Shuffled dispatch (hence shuffled completion) must not change
        the ensemble: results are reassembled by run index."""
        matrix, config, reference = setup

        def hook(order):
            if permute == "reverse":
                return list(reversed(order))
            rng = np.random.default_rng(99)
            return list(rng.permutation(order))

        TaskPoolExecutor.dispatch_order_hook = staticmethod(hook)
        try:
            cfg = config.with_updates(parallel=ParallelConfig(n_workers=2))
            samples = LemonTreeLearner(cfg).sample_clusterings(matrix, seed=SEED)
        finally:
            TaskPoolExecutor.dispatch_order_hook = None
        _assert_same_ensemble(samples, reference)

    def test_full_learn_bit_identical(self, setup):
        """The whole pipeline (Tasks 1-3) with the pool equals sequential."""
        matrix, config, _ = setup
        sequential = LemonTreeLearner(config).learn(matrix, seed=SEED).network
        parallel = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_workers=2))
        ).learn(matrix, seed=SEED).network
        assert parallel == sequential

    def test_trace_recorded_with_pool(self, setup):
        """Worker busy times and per-run supersteps come back from the
        pool, merged in ascending run order."""
        matrix, config, _ = setup
        seq_trace = WorkTrace()
        LemonTreeLearner(config).sample_clusterings(
            matrix, seed=SEED, trace=seq_trace
        )
        par_trace = WorkTrace()
        LemonTreeLearner(config.with_updates(parallel=ParallelConfig(n_workers=2))).sample_clusterings(
            matrix, seed=SEED, trace=par_trace
        )
        assert par_trace.worker_times
        assert [(s.phase, s.run) for s in par_trace.steps] == [
            (s.phase, s.run) for s in seq_trace.steps
        ]
        for a, b in zip(par_trace.steps, seq_trace.steps):
            np.testing.assert_array_equal(a.costs, b.costs)


class TestResume:
    def _checkpoint_files(self, directory):
        return sorted(directory.glob("ganesh_*.npz"))

    def test_only_missing_runs_reexecute(self, setup, tmp_path):
        """Delete k of G checkpoints; the resumed run recreates exactly
        those k files and leaves the survivors untouched (byte-for-byte
        the same inode content — they are never rewritten)."""
        matrix, config, reference = setup
        cfg = config.with_updates(parallel=ParallelConfig(n_workers=2))
        LemonTreeLearner(cfg).sample_clusterings(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        files = self._checkpoint_files(tmp_path)
        assert [f.name for f in files] == [
            f"ganesh_{g}.npz" for g in range(G_RUNS)
        ]
        for killed in (1, 3):
            (tmp_path / f"ganesh_{killed}.npz").unlink()
        survivor_stamps = {
            f.name: f.stat().st_mtime_ns for f in self._checkpoint_files(tmp_path)
        }

        samples = LemonTreeLearner(cfg).sample_clusterings(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        _assert_same_ensemble(samples, reference)
        for f in self._checkpoint_files(tmp_path):
            if f.name in survivor_stamps:
                assert f.stat().st_mtime_ns == survivor_stamps[f.name]
        assert len(self._checkpoint_files(tmp_path)) == G_RUNS

    def test_sequential_resumes_parallel_checkpoints(self, setup, tmp_path):
        """Checkpoints written by pool workers are valid for a sequential
        resume (and vice versa) — one on-disk format, one fingerprint."""
        matrix, config, reference = setup
        LemonTreeLearner(config.with_updates(parallel=ParallelConfig(n_workers=2))).sample_clusterings(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        samples = LemonTreeLearner(config).sample_clusterings(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        _assert_same_ensemble(samples, reference)

    def test_full_learn_consensus_unchanged_after_resume(self, setup, tmp_path):
        """Interrupt after k runs, relearn: the final consensus modules
        (and network) equal the uninterrupted run's."""
        matrix, config, _ = setup
        reference = LemonTreeLearner(config).learn(matrix, seed=SEED).network
        # "Interrupt": persist only k of the G runs, as a killed pool would.
        checkpoints = CheckpointStore.open(tmp_path, matrix.values, config, SEED)
        learner = LemonTreeLearner(config)
        samples = learner.sample_clusterings(matrix, seed=SEED)
        for g in (0, 2):
            checkpoints.store_run(g, samples[g])

        resumed = LemonTreeLearner(config.with_updates(parallel=ParallelConfig(n_workers=2))).learn(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        assert resumed.network == reference

    def test_runs_are_on_disk_when_dispatch_returns(self, setup, tmp_path):
        """Pool workers write each run before reporting it: once
        ``submit_runs`` returns, every run's file is on disk — before
        ``close()``, which dispatches nothing to the workers."""
        matrix, config, reference = setup
        with TaskPoolExecutor(
            matrix.values, _parents(matrix, config),
            config.with_updates(parallel=ParallelConfig(n_workers=2)), SEED,
            checkpoint_dir=tmp_path,
        ) as executor:
            results = executor.submit_runs(
                _ganesh_run, [(g, False) for g in range(G_RUNS)]
            )
            for g, labels, _steps in results:
                with np.load(tmp_path / f"ganesh_{g}.npz") as payload:
                    np.testing.assert_array_equal(payload["labels"], labels)
            assert not list(tmp_path.glob("*.tmp"))
        _assert_same_ensemble([labels for _g, labels, _ in results], reference)

    def test_foreign_fingerprint_ignored(self, setup, tmp_path):
        """A checkpoint written under different sweep parameters is
        re-executed, not silently reused."""
        matrix, config, reference = setup
        other = config.with_updates(n_update_steps=2)
        LemonTreeLearner(other).sample_clusterings(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        samples = LemonTreeLearner(config).sample_clusterings(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        _assert_same_ensemble(samples, reference)


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
class TestTransports:
    """Task 1's order-independence and resume hold over every transport."""

    @pytest.mark.parametrize("permute", ["reverse", "shuffle"])
    def test_out_of_order_dispatch(self, setup, transport, permute):
        matrix, config, reference = setup

        def hook(order):
            if permute == "reverse":
                return list(reversed(order))
            return list(np.random.default_rng(99).permutation(order))

        TaskScheduler.dispatch_order_hook = staticmethod(hook)
        try:
            cfg = config.with_updates(parallel=TRANSPORTS[transport])
            samples = LemonTreeLearner(cfg).sample_clusterings(matrix, seed=SEED)
        finally:
            TaskScheduler.dispatch_order_hook = None
        _assert_same_ensemble(samples, reference)

    def test_only_missing_runs_reexecute(self, setup, transport, tmp_path):
        matrix, config, reference = setup
        learner = LemonTreeLearner(
            config.with_updates(parallel=TRANSPORTS[transport])
        )
        learner.sample_clusterings(matrix, seed=SEED, checkpoint_dir=tmp_path)
        for killed in (1, 3):
            (tmp_path / f"ganesh_{killed}.npz").unlink()
        stamps = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }
        samples = learner.sample_clusterings(
            matrix, seed=SEED, checkpoint_dir=tmp_path
        )
        _assert_same_ensemble(samples, reference)
        assert len(list(tmp_path.glob("ganesh_*.npz"))) == G_RUNS
        for name, stamp in stamps.items():
            assert (tmp_path / name).stat().st_mtime_ns == stamp


def _die_on_first_item(ctx, item):
    """Test task: kill the worker process outright on item 0."""
    g, want_trace = item
    if g == 0:
        os._exit(13)
    return _ganesh_run(ctx, item)


class TestWorkerCrash:
    def test_dead_worker_raises_and_checkpoints_survive(self, setup, tmp_path):
        """A worker dying mid-run is detected (no hang); the surviving
        runs' checkpoints make the retry execute only the lost runs."""
        matrix, config, reference = setup
        parents = _parents(matrix, config)
        with TaskPoolExecutor(
            matrix.values, parents, config.with_updates(parallel=ParallelConfig(n_workers=2)), SEED,
            checkpoint_dir=tmp_path, crash_poll_seconds=0.2,
        ) as executor:
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(
                    _die_on_first_item,
                    [(g, False) for g in range(G_RUNS)],
                    schedule="dynamic",
                )
        # Run 0 died; at least one other run completed and checkpointed.
        names = {f.name for f in tmp_path.glob("ganesh_*.npz")}
        assert "ganesh_0.npz" not in names
        assert names

        samples = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_workers=2))
        ).sample_clusterings(matrix, seed=SEED, checkpoint_dir=tmp_path)
        _assert_same_ensemble(samples, reference)

    def test_segment_unlinked_after_crash(self, setup, tmp_path):
        """The shared-memory matrix never outlives the executor, even when
        the pool is torn down around a crashed worker."""
        from multiprocessing import shared_memory

        matrix, config, _ = setup
        parents = _parents(matrix, config)
        executor = TaskPoolExecutor(
            matrix.values, parents, config.with_updates(parallel=ParallelConfig(n_workers=2)), SEED,
            checkpoint_dir=tmp_path, crash_poll_seconds=0.2,
        )
        try:
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(
                    _die_on_first_item, [(g, False) for g in range(G_RUNS)]
                )
            segment = executor.transport._shared.spec[0]
        finally:
            executor.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)


class TestSingleTransfer:
    def test_one_pool_one_transfer_across_tasks(self, setup):
        """One ``learn`` call with Tasks 1 and 3 both parallel: exactly one
        pool construction, one shared-memory transfer, one initializer run
        per worker."""
        matrix, config, _ = setup
        poolutil.reset_counters()
        result = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_workers=2))
        ).learn(matrix, seed=SEED)
        counts = poolutil.counters()
        assert counts["pool_constructions"] == 1
        assert counts["matrix_transfers"] == 1
        stats = result.stats["executor"]
        assert stats["pools_constructed"] == 1
        assert stats["matrix_transfers"] == 1
        assert stats["worker_inits"] == stats["n_workers"] == 2

    def test_single_run_skips_pool_for_task1(self, setup):
        """G = 1 has no Task 1 parallelism: the executor must not spin the
        pool up for it (lazy construction) but still serves Task 3."""
        matrix, config, _ = setup
        poolutil.reset_counters()
        cfg = config.with_updates(n_ganesh_runs=1, parallel=ParallelConfig(n_workers=2))
        LemonTreeLearner(cfg).learn(matrix, seed=SEED)
        assert poolutil.counters()["pool_constructions"] == 1
