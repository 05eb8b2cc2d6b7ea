"""Every learner honours ``config.parallel.kernel_backend``.

The backend is a value each job carries: whoever holds the config resolves
it and hands the result to the scorer and the GaneSH runs.  Nothing
process-wide is installed, so on ``"numpy"`` no entry of the native
extension runs on any tier or learner, two jobs in one process keep their
own backends, and an explicit ``"native"`` request without the extension
raises instead of degrading.
"""

import pytest

from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.genomica.learner import GenomicaConfig, GenomicaLearner
from repro.parallel.engine import ParallelLearner
from repro.parallel.executor import open_executor
from repro.parallel.trace import WorkTrace
from repro.scoring.kernel import merge_counters
from repro.scoring.split_score import SplitScorer
from repro.service import InferenceService
from tests.conftest import MODE_INPUTS


def _lemon(backend="numpy", **parallel) -> LearnerConfig:
    return LearnerConfig(
        max_sampling_steps=5,
        parallel=ParallelConfig(kernel_backend=backend, **parallel),
    )


def _genomica(backend="numpy", n_workers=1) -> GenomicaConfig:
    return GenomicaConfig(
        n_modules=3, max_iterations=2,
        parallel=ParallelConfig(n_workers=n_workers, kernel_backend=backend),
    )


@pytest.fixture
def no_native_entry(monkeypatch):
    """Every ``NativeKernels`` entry fails if it runs; pool workers and
    shard nodes are forked after this and inherit it."""

    def refuse(name):
        def entered(self, *args, **kwargs):
            raise AssertionError(f"NativeKernels.{name} ran on the numpy backend")

        return entered

    entries = [name for name in vars(_native.NativeKernels) if not name.startswith("_")]
    assert {"uniforms", "score_batch", "obs_sweep", "var_sweep"} <= set(entries)
    for name in entries:
        monkeypatch.setattr(_native.NativeKernels, name, refuse(name))


@pytest.fixture
def scorers(monkeypatch):
    """Every ``SplitScorer`` this process builds during the test."""
    built = []
    init = SplitScorer.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SplitScorer, "__init__", recording)
    return built


def _backends(scorers) -> list[str]:
    """The backends the given scorers' undrained counters name."""
    merged: dict = {}
    for scorer in scorers:
        merge_counters(merged, scorer.counters)
    return merged["backends"]


class TestNumpyRunsNoNativeEntry:
    @pytest.mark.parametrize(
        "parallel", [dict(n_workers=1), dict(n_workers=2), dict(n_nodes=2)],
        ids=["one-worker", "pool", "shard-nodes"],
    )
    def test_lemon_tree(self, tiny_matrix, no_native_entry, parallel):
        trace = WorkTrace()
        LemonTreeLearner(_lemon(**parallel)).learn(tiny_matrix, seed=5, trace=trace)
        assert trace.kernel_counters["backends"] == ["numpy"]

    def test_lemon_tree_split_mode(self, tiny_matrix, no_native_entry):
        trace = WorkTrace()
        with open_executor(tiny_matrix.values, _lemon(n_workers=2), 5) as executor:
            executor.learn_modules(MODE_INPUTS["split"], trace=trace)
            assert executor.stats.mode == "split"
        assert trace.kernel_counters["backends"] == ["numpy"]

    @pytest.mark.parametrize("n_workers", [1, 2], ids=["sequential", "pooled"])
    def test_genomica(self, tiny_matrix, no_native_entry, n_workers):
        trace = WorkTrace()
        GenomicaLearner(_genomica(n_workers=n_workers)).learn(
            tiny_matrix, seed=5, trace=trace
        )
        assert trace.kernel_counters["backends"] == ["numpy"]

    def test_spmd(self, tiny_matrix, no_native_entry, scorers):
        ParallelLearner(_lemon()).learn(tiny_matrix, seed=5, p=2)
        assert _backends(scorers) == ["numpy"]

    def test_genomica_pooled_untraced(self, tiny_matrix, no_native_entry):
        """No trace to read the backend from: the forked workers inherit
        ``no_native_entry``, so a native call fails the run."""
        result = GenomicaLearner(_genomica(n_workers=2)).learn(tiny_matrix, seed=5)
        assert result.network.n_modules == 3

    def test_daemon_job(self, tiny_matrix, no_native_entry, tmp_path):
        with InferenceService(tmp_path, max_inflight=1) as service:
            payload = service.wait(service.submit(tiny_matrix, _lemon(), 7))
        assert payload["kernel_counters"]["backends"] == ["numpy"]


@pytest.mark.skipif(_native.load() is None, reason="native backend unavailable")
def test_jobs_in_one_process_keep_their_own_backends(tiny_matrix):
    for backend in ("numpy", "native", "numpy"):
        trace = WorkTrace()
        LemonTreeLearner(_lemon(backend)).learn(tiny_matrix, seed=5, trace=trace)
        assert trace.kernel_counters["backends"] == [backend]


class TestNativeRequestWithoutExtension:
    @pytest.fixture(autouse=True)
    def without_extension(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        _native.invalidate()
        yield
        monkeypatch.undo()
        _native.invalidate()

    def test_genomica_raises(self, tiny_matrix):
        with pytest.raises(RuntimeError, match="native"):
            GenomicaLearner(_genomica("native")).learn(tiny_matrix, seed=5)

    def test_spmd_raises(self, tiny_matrix):
        with pytest.raises(RuntimeError, match="native"):
            ParallelLearner(_lemon("native")).learn(tiny_matrix, seed=5, p=2)
