"""Tests for the single-host executor and the ``open_executor`` seam.

The central contracts:

* module-level and split-level runs (picked by ``choose_mode`` from the
  input, never by the caller) produce networks bit-identical to the
  one-worker run for every worker count and schedule;
* resuming from a partially written checkpoint directory reproduces the
  uninterrupted network, with workers writing their own checkpoints;
* the expression matrix is transferred to workers exactly once per
  ``learn_from_modules`` call (instrumented initializer) and no ``mp.Pool``
  is constructed more than once per call.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.datatypes import ModuleNetwork
from repro.parallel import poolutil
from repro.parallel.executor import (
    TaskPoolExecutor,
    TaskScheduler,
    choose_mode,
    estimate_module_cost,
    open_executor,
)
from repro.parallel.tasks import tree_phase
from repro.parallel.trace import WorkTrace
from tests.conftest import MODE_INPUTS, TRANSPORTS


@pytest.fixture(scope="module")
def setup():
    from repro.data.synthetic import make_module_dataset

    matrix = make_module_dataset(24, 12, n_modules=3, seed=42).matrix
    config = LearnerConfig(max_sampling_steps=5)
    learner = LemonTreeLearner(config)
    members = learner.consensus(learner.sample_clusterings(matrix, seed=5))
    reference = learner.learn_from_modules(matrix, members, seed=5).network
    return matrix, config, members, reference


def _parents(matrix, config):
    return np.asarray(config.resolve_candidate_parents(matrix.n_vars), np.int64)


def _with_workers(config, n_workers, **knobs):
    return config.with_updates(
        parallel=ParallelConfig(n_workers=n_workers, **knobs)
    )


@pytest.fixture(scope="module")
def mode_references(setup):
    matrix, config, _members, _reference = setup
    return {
        mode: LemonTreeLearner(config).learn_from_modules(
            matrix, members, seed=5
        ).network
        for mode, members in MODE_INPUTS.items()
    }


class TestEquivalence:
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["module", "split"])
    def test_network_bit_identical(
        self, setup, mode_references, mode, n_workers, schedule
    ):
        """``mode`` names the decomposition the *input* makes the executor
        pick; the network never depends on it."""
        matrix, config, _members, _reference = setup
        cfg = _with_workers(config, n_workers, schedule=schedule)
        with open_executor(matrix.values, cfg, 5) as executor:
            modules = executor.learn_modules(MODE_INPUTS[mode])
            # One worker always learns whole modules, in-process.
            assert executor.stats.mode == (mode if n_workers > 1 else "module")
        net = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
        assert net == mode_references[mode]

    def test_auto_mode_bit_identical(self, setup):
        matrix, config, members, reference = setup
        net = LemonTreeLearner(_with_workers(config, 2)).learn_from_modules(
            matrix, members, seed=5
        ).network
        assert net == reference

    def test_spawn_context_pool_matches(self, setup):
        """A spawn-context pool (the macOS/Windows portability path, and
        what the service lease always uses) scores bit-identically to the
        in-process run."""
        matrix, config, members, reference = setup
        _trees, _nodes, records, _mrng = tree_phase(
            matrix.values, 0, list(members[0]), config, seed=5
        )
        with open_executor(matrix.values, config, 5) as executor:
            serial = executor.score_splits(records)
        with open_executor(
            matrix.values, _with_workers(config, 2), 5, mp_context="spawn"
        ) as executor:
            spawned = executor.score_splits(records)
        for a, b in zip(serial, spawned):
            np.testing.assert_array_equal(a, b)

    def test_mode_is_not_an_option(self, setup):
        """The decomposition is chosen from the input alone: the removed
        spellings of a forced mode are hard errors."""
        matrix, config, _members, _reference = setup
        with pytest.raises(TypeError):
            ParallelConfig(mode="split")
        for override in (
            {"parallel_mode": "split"},
            {"n_workers": 2},
            {"schedule": "static"},
            {"steal": False},
        ):
            with pytest.raises(TypeError):
                TaskPoolExecutor(
                    matrix.values, _parents(matrix, config), config, 5, **override
                )


class TestCheckpoints:
    def test_resume_from_partial_directory(self, setup, tmp_path):
        """A pooled run resumed from a partially written checkpoint
        directory yields the exact uninterrupted network."""
        matrix, config, members, reference = setup
        LemonTreeLearner(config).learn_from_modules(
            matrix, members, seed=5, checkpoint_dir=tmp_path
        )
        (tmp_path / "module_0.json").unlink()
        cfg = _with_workers(config, 2)
        net = LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=5, checkpoint_dir=tmp_path
        ).network
        assert net == reference

    def test_workers_write_checkpoints(self, setup, mode_references, tmp_path):
        """In module mode the workers themselves checkpoint each completed
        module, so an interruption loses only the modules in flight."""
        matrix, config, _members, _reference = setup
        members, reference = MODE_INPUTS["module"], mode_references["module"]
        with open_executor(
            matrix.values, _with_workers(config, 2), 5, tmp_path
        ) as executor:
            executor.learn_modules(members)
            assert executor.stats.mode == "module"
        names = sorted(p.name for p in tmp_path.glob("module_*.json"))
        assert names == [f"module_{i}.json" for i in range(len(members))]
        # A sequential run resumes from the worker-written checkpoints.
        resumed = LemonTreeLearner(config).learn_from_modules(
            matrix, members, seed=5, checkpoint_dir=tmp_path
        )
        assert resumed.network == reference
        assert resumed.task_times.modules < 0.5

    def test_split_mode_writes_checkpoints(self, setup, mode_references, tmp_path):
        matrix, config, _members, _reference = setup
        members = MODE_INPUTS["split"]
        with open_executor(
            matrix.values, _with_workers(config, 2), 5, tmp_path
        ) as executor:
            modules = executor.learn_modules(members)
            assert executor.stats.mode == "split"
        net = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
        assert net == mode_references["split"]
        assert len(list(tmp_path.glob("module_*.json"))) == len(members)


class TestSingleTransfer:
    def test_matrix_shipped_once_and_single_pool(self, setup):
        """The executor's central contract: one pool, one matrix transfer
        per Task 3, one initializer run per worker — even across repeated
        scoring calls on the same executor."""
        matrix, config, members, reference = setup
        poolutil.reset_counters()
        with open_executor(
            matrix.values, _with_workers(config, 2), 5
        ) as executor:
            first = executor.learn_modules(members)
            second = executor.learn_modules(members)  # pool is reused
            assert executor.worker_inits() == 2
        counts = poolutil.counters()
        assert counts["pool_constructions"] == 1
        assert counts["matrix_transfers"] == 1
        assert executor.stats.pools_constructed == 1
        assert executor.stats.matrix_transfers == 1
        for mods in (first, second):
            assert (
                ModuleNetwork(mods, matrix.var_names, matrix.n_obs) == reference
            )


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
class TestTransportContract:
    """The scheduler's contracts hold whatever carries its items."""

    @pytest.mark.parametrize("mode", ["module", "split"])
    def test_network_bit_identical(self, setup, mode_references, transport, mode):
        matrix, config, _members, _reference = setup
        cfg = config.with_updates(parallel=TRANSPORTS[transport])
        records = []
        with open_executor(matrix.values, cfg, 5) as executor:
            run = executor.transport.run

            def recording(*args, **kwargs):
                out = run(*args, **kwargs)
                records.extend(out)
                return out

            executor.transport.run = recording
            modules = executor.learn_modules(MODE_INPUTS[mode])
            assert executor.stats.mode == (
                mode if executor.n_workers > 1 else "module"
            )
        net = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
        assert net == mode_references[mode]
        # One record shape whatever carried the item:
        # (index, result, node, worker, seconds, kernel_totals).
        assert records and all(len(record) == 6 for record in records)
        nodes = {record[2] for record in records}
        assert nodes <= ({0, 1} if transport == "socket-nodes" else {None})

    def test_dispatch_permutation_leaves_network_unchanged(
        self, setup, mode_references, transport
    ):
        matrix, config, _members, _reference = setup
        cfg = config.with_updates(parallel=TRANSPORTS[transport])
        seen = []

        def hook(order):
            seen.append(list(order))
            return list(np.random.default_rng(3).permutation(order))

        TaskScheduler.dispatch_order_hook = staticmethod(hook)
        try:
            with open_executor(matrix.values, cfg, 5) as executor:
                modules = executor.learn_modules(MODE_INPUTS["module"])
        finally:
            TaskScheduler.dispatch_order_hook = None
        # one batch of whole modules per worker
        assert seen == [list(range(min(executor.n_workers, len(modules))))]
        net = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
        assert net == mode_references["module"]

    def test_checkpoint_resume(self, setup, mode_references, transport, tmp_path):
        """Whoever ran a module checkpointed it; a resumed run re-learns
        only what is missing and never rewrites a survivor."""
        matrix, config, _members, _reference = setup
        members = MODE_INPUTS["module"]
        learner = LemonTreeLearner(
            config.with_updates(parallel=TRANSPORTS[transport])
        )
        learner.learn_from_modules(matrix, members, seed=5, checkpoint_dir=tmp_path)
        files = sorted(tmp_path.glob("module_*.json"))
        assert len(files) == len(members)
        files[0].unlink()
        stamps = {f.name: f.stat().st_mtime_ns for f in files[1:]}
        resumed = learner.learn_from_modules(
            matrix, members, seed=5, checkpoint_dir=tmp_path
        )
        assert resumed.network == mode_references["module"]
        assert files[0].exists()
        for f in files[1:]:
            assert f.stat().st_mtime_ns == stamps[f.name]

    def test_one_open_one_close_no_leak(self, setup, transport):
        matrix, config, members, reference = setup
        cfg = config.with_updates(parallel=TRANSPORTS[transport])
        before = _shm_names()
        executor = open_executor(matrix.values, cfg, 5)
        with executor:
            first = executor.learn_modules(members)
            second = executor.learn_modules(members)  # same pool / nodes
        assert _released(executor.transport)
        assert not _shm_names() - before
        if transport == "socket-nodes":
            # Joined, not only dead: neither a process nor a zombie is left.
            assert len(executor.node_pids) == 2
            assert not any(
                Path(f"/proc/{pid}").exists() for pid in executor.node_pids
            )
        executor.close()  # idempotent
        for mods in (first, second):
            assert ModuleNetwork(mods, matrix.var_names, matrix.n_obs) == reference


def _echo_run(ctx, item):
    """submit_runs test task: prove the worker context is installed."""
    assert ctx["data"] is not None and ctx["config"] is not None
    return item * 10


def _raise_run(ctx, item):
    raise ValueError(f"injected for item {item}")


def _chunk_size_run(ctx, item):
    """submit_runs test task: the kernel chunk size this process runs by."""
    from repro.scoring.kernel import configured_chunk_elements

    return configured_chunk_elements()


def _whoami_run(ctx, item):
    """submit_runs test task: sleep ``item`` seconds, report which process
    and which stable worker index ran it."""
    import os
    import time

    time.sleep(item)
    return os.getpid(), ctx["worker"]


class TestSubmitRuns:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_results_in_item_order(self, setup, n_workers, schedule):
        matrix, config, _members, _reference = setup
        cfg = _with_workers(config, n_workers, schedule=schedule)
        with open_executor(matrix.values, cfg, 5) as executor:
            results = executor.submit_runs(_echo_run, list(range(7)))
        assert results == [i * 10 for i in range(7)]

    def test_dispatch_hook_does_not_change_result_order(self, setup):
        matrix, config, _members, _reference = setup
        parents = _parents(matrix, config)
        TaskPoolExecutor.dispatch_order_hook = staticmethod(
            lambda order: list(reversed(order))
        )
        try:
            with TaskPoolExecutor(
                matrix.values, parents, _with_workers(config, 2), 5
            ) as executor:
                results = executor.submit_runs(_echo_run, list(range(6)))
        finally:
            TaskPoolExecutor.dispatch_order_hook = None
        assert results == [i * 10 for i in range(6)]

    def test_empty_items(self, setup):
        matrix, config, _members, _reference = setup
        parents = _parents(matrix, config)
        with TaskPoolExecutor(
            matrix.values, parents, _with_workers(config, 2), 5
        ) as executor:
            assert executor.submit_runs(_echo_run, []) == []
            assert executor.worker_inits() == 0  # pool never constructed

    def test_task_exception_propagates(self, setup):
        matrix, config, _members, _reference = setup
        parents = _parents(matrix, config)
        with TaskPoolExecutor(
            matrix.values, parents, _with_workers(config, 2), 5
        ) as executor:
            with pytest.raises(ValueError, match="injected"):
                executor.submit_runs(_raise_run, [0, 1, 2])


class TestTeardown:
    def test_segment_unlinked_on_exception_inside_context(self, setup):
        """Regression: an exception raised while the pool is live must not
        leak the shared-memory segment (the learn_from_modules path exits
        through the executor's context manager)."""
        from multiprocessing import shared_memory

        matrix, config, _members, _reference = setup
        parents = _parents(matrix, config)
        segment = None
        with pytest.raises(RuntimeError, match="injected"):
            with TaskPoolExecutor(
                matrix.values, parents, _with_workers(config, 2), 5
            ) as executor:
                executor.submit_runs(_echo_run, [1, 2])
                segment = executor.transport._shared.spec[0]
                raise RuntimeError("injected")
        assert segment is not None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)

    def test_learn_from_modules_closes_executor_on_failure(
        self, setup, monkeypatch
    ):
        """Regression for the teardown leak: an exception raised inside a
        worker task during learn_from_modules propagates as itself and the
        context-manager exit unlinks the shared segment."""
        from repro.parallel import tasks as tasks_mod

        matrix, config, _members, _reference = setup
        members = MODE_INPUTS["module"]  # workers learn whole modules

        def boom(*args, **kwargs):
            raise ValueError("injected module failure")

        # Fork-inherited: workers resolve learn_module_batch through the
        # tasks module's globals, so the patch reaches them.
        monkeypatch.setattr(tasks_mod, "learn_module_batch", boom)
        before = _shm_names()
        cfg = _with_workers(config, 2)
        with pytest.raises(ValueError, match="injected module failure"):
            LemonTreeLearner(cfg).learn_from_modules(matrix, members, seed=5)
        assert _shm_names() == before

    def test_serial_close_clears_worker_state(self, setup):
        """An in-process executor keeps its task context on itself (never
        in the pool workers' module global) and drops it — and with it the
        matrix reference — on close."""
        from repro.parallel import tasks as tasks_mod

        matrix, config, _members, _reference = setup
        with open_executor(matrix.values, config, 5) as executor:
            executor.submit_runs(_echo_run, [0, 1])
            assert executor.transport._ctx is not None  # installed in-process
            assert tasks_mod._WORKER == {}
        assert executor.transport._ctx is None

    def test_close_is_idempotent(self, setup):
        matrix, config, _members, _reference = setup
        parents = _parents(matrix, config)
        executor = TaskPoolExecutor(
            matrix.values, parents, _with_workers(config, 2), 5
        )
        executor.submit_runs(_echo_run, [0])
        executor.close()
        executor.close()  # second close must be a no-op, not an error


class TestOneSeam:
    """Every learner entry point opens its executor through
    ``open_executor`` — exactly once, closed on every path — so the
    one-worker run is configured like every other tier."""

    @pytest.fixture()
    def opened(self, monkeypatch):
        """Record every executor the factory hands out."""
        from repro.parallel import executor as executor_mod

        opened = []
        real = executor_mod.open_executor

        def recording(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(executor_mod, "open_executor", recording)
        return opened

    def test_one_worker_honours_kernel_backend(self, setup):
        """Regression: the learner's private serial loops never applied
        ``kernel_backend`` (numpy cells ran the native kernel)."""
        from repro.scoring import kernel as kernel_mod
        from repro.scoring.kernel import configured_kernel_backend

        matrix, config, _members, _reference = setup
        backend = configured_kernel_backend()
        chunk = kernel_mod._CONFIGURED_CHUNK_ELEMENTS
        trace = WorkTrace()
        LemonTreeLearner(
            _with_workers(config, 1, kernel_backend="numpy")
        ).learn(matrix, seed=5, trace=trace)
        assert trace.kernel_counters["backends"] == ["numpy"]
        assert trace.kernel_counters["evaluations"] > 0
        # Process-wide settings are restored once learn() returns.
        assert configured_kernel_backend() == backend
        assert kernel_mod._CONFIGURED_CHUNK_ELEMENTS == chunk

    def test_one_worker_leaves_chunk_size_alone(self, setup, monkeypatch):
        """The kernel chunk size has one source, the process's own
        ``configured_chunk_elements()``: a one-worker executor neither
        installs nor restores it, and its kernels run by it."""
        from repro.scoring import kernel as kernel_mod

        matrix, config, members, _reference = setup
        n_obs = matrix.n_obs
        monkeypatch.setattr(kernel_mod, "_CONFIGURED_CHUNK_ELEMENTS", 8 * n_obs)
        trace = WorkTrace()
        with open_executor(matrix.values, config, 5) as executor:
            executor.learn_modules(members, trace=trace)
            assert kernel_mod._CONFIGURED_CHUNK_ELEMENTS == 8 * n_obs
        assert kernel_mod._CONFIGURED_CHUNK_ELEMENTS == 8 * n_obs
        assert trace.kernel_counters["peak_chunk_elements"] == 8 * n_obs
        assert trace.topology["kernel_chunk_elements"] == 8 * n_obs

    @pytest.mark.parametrize("mp_context", [None, "spawn"], ids=["fork", "spawn"])
    def test_pool_workers_run_by_the_drivers_chunk_size(
        self, setup, monkeypatch, mp_context
    ):
        """The driver's number is shipped with the pool's initargs, so a
        spawned worker (a fresh interpreter that would otherwise probe the
        machine itself) sizes its temporaries like a forked one."""
        from repro.scoring import kernel as kernel_mod

        matrix, config, _members, _reference = setup
        monkeypatch.setattr(kernel_mod, "_CONFIGURED_CHUNK_ELEMENTS", 4242)
        with open_executor(
            matrix.values, _with_workers(config, 2), 5, mp_context=mp_context
        ) as executor:
            sizes = executor.submit_runs(_chunk_size_run, range(4))
        assert sizes == [4242] * 4

    def test_one_worker_native_request_raises_without_extension(
        self, setup, monkeypatch
    ):
        """An explicit ``native`` request must not silently degrade at one
        worker either — and the failed call restores the process config."""
        from repro import _native
        from repro.scoring.kernel import configured_kernel_backend

        matrix, config, _members, _reference = setup
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        _native.invalidate()
        backend = configured_kernel_backend()
        try:
            with pytest.raises(RuntimeError, match="native"):
                LemonTreeLearner(
                    _with_workers(config, 1, kernel_backend="native")
                ).learn(matrix, seed=5)
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            _native.invalidate()
        assert configured_kernel_backend() == backend

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_entry_points_open_one_executor_and_close_it(
        self, setup, opened, n_workers
    ):
        matrix, config, members, reference = setup
        learner = LemonTreeLearner(_with_workers(config, n_workers))
        before = _shm_names()
        learner.sample_clusterings(matrix, seed=5)
        result = learner.learn_from_modules(matrix, members, seed=5)
        full = learner.learn(matrix, seed=5)
        assert len(opened) == 3
        for executor in opened:
            assert _released(executor.transport)
        assert _shm_names() == before
        assert result.network == reference
        # learn_from_modules reports the same executor block learn does.
        assert result.stats["executor"].keys() == full.stats["executor"].keys()
        assert result.stats["executor"]["n_workers"] == n_workers
        assert result.stats["executor"]["pools_constructed"] == (n_workers > 1)

    def test_sample_clusterings_closes_executor_on_failure(
        self, setup, opened, monkeypatch
    ):
        from repro.parallel import tasks as tasks_mod

        matrix, config, _members, _reference = setup

        def boom(*args, **kwargs):
            raise ValueError("injected chain failure")

        monkeypatch.setattr(tasks_mod, "run_replicated_ganesh", boom)
        before = _shm_names()
        cfg = _with_workers(config, 2).with_updates(n_ganesh_runs=2)
        with pytest.raises(ValueError, match="injected chain failure"):
            LemonTreeLearner(cfg).sample_clusterings(matrix, seed=5)
        (executor,) = opened
        assert executor.transport._pool is None and executor.transport._shared is None
        assert _shm_names() == before


def _released(transport) -> bool:
    """Whichever transport it is, close() left no pool, segment, context,
    channel or node process."""
    return all(
        getattr(transport, name, None) is None
        for name in ("_pool", "_shared", "_ctx", "_channels")
    ) and not getattr(transport, "_procs", None)


def _shm_names():
    import os

    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestModeHeuristic:
    def test_balanced_many_modules_pick_module_level(self):
        assert choose_mode([1.0] * 8, 4) == "module"

    def test_dominating_module_picks_split_level(self):
        assert choose_mode([100.0, 1, 1, 1, 1, 1, 1, 1], 4) == "split"

    def test_fewer_modules_than_workers_picks_split_level(self):
        assert choose_mode([1.0, 1.0], 4) == "split"

    def test_cost_estimate_ranks_by_size(self):
        big = estimate_module_cost(list(range(20)), 50, LearnerConfig())
        small = estimate_module_cost(list(range(2)), 50, LearnerConfig())
        assert big > small


class TestTrace:
    def test_worker_times_and_steps_recorded(self, setup):
        matrix, config, members, _ = setup
        trace = WorkTrace()
        LemonTreeLearner(_with_workers(config, 2)).learn_from_modules(
            matrix, MODE_INPUTS["module"], seed=5, trace=trace
        )
        assert trace.worker_times
        assert all(t >= 0.0 for t in trace.worker_times.values())
        assert trace.worker_imbalance() >= 0.0
        # Worker-recorded supersteps are merged back in module order.
        assert any(s.phase == "modules.split_scoring" for s in trace.steps)
        assert trace.times.get("modules", 0.0) > 0.0

    def test_worker_labels_are_stable_per_process(self, setup):
        """One label is one process across dispatches: a lone first item
        (Task 1 at G = 1) must not shift the labels of the next dispatch."""
        matrix, config, _members, _reference = setup
        parents = _parents(matrix, config)
        trace = WorkTrace()
        with TaskPoolExecutor(
            matrix.values, parents, _with_workers(config, 2), 5
        ) as executor:
            ran = executor.submit_runs(_whoami_run, [0.05], trace=trace)
            ran += executor.submit_runs(_whoami_run, [0.02] * 6, trace=trace)
        label_of = {}
        slept = {}
        for (pid, worker), seconds in zip(ran, [0.05] + [0.02] * 6):
            assert label_of.setdefault(pid, worker) == worker
            slept[worker] = slept.get(worker, 0.0) + seconds
        assert len(set(label_of.values())) == len(label_of)
        # Per-label totals are per-process totals: at least the time that
        # process slept, and nobody else's.
        assert set(trace.worker_times) == {f"worker-{w}" for w in slept}
        for worker, seconds in slept.items():
            assert trace.worker_times[f"worker-{worker}"] >= seconds
        assert sum(trace.worker_times.values()) < sum(slept.values()) + 0.5

    def test_traced_learn_labels_workers_by_index(self, setup):
        matrix, config, _members, _reference = setup
        trace = WorkTrace()
        LemonTreeLearner(
            _with_workers(config, 2).with_updates(n_ganesh_runs=1)
        ).learn(matrix, seed=5, trace=trace)
        assert trace.worker_times
        assert set(trace.worker_times) <= {"worker-0", "worker-1"}

    def test_worker_times_round_trip(self, setup, tmp_path):
        from repro.parallel.trace import load_trace, save_trace

        trace = WorkTrace()
        trace.mark_worker_time("worker-0", 1.5)
        trace.mark_worker_time("worker-0", 0.5)
        trace.mark_worker_time("worker-1", 1.0)
        save_trace(trace, tmp_path / "t.npz")
        loaded = load_trace(tmp_path / "t.npz")
        assert loaded.worker_times == {"worker-0": 2.0, "worker-1": 1.0}
