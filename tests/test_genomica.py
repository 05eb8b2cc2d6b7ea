"""Tests for the GENOMICA-style iterative two-step learner."""

import numpy as np
import pytest

from repro.analysis import module_recovery_score
from repro.data.synthetic import make_module_dataset
from repro.datatypes import ExpressionMatrix
from repro.genomica import GenomicaConfig, GenomicaLearner
from repro.genomica.learner import _genomica_estep_run
from repro.core.config import ParallelConfig
from repro.parallel.executor import TaskScheduler, open_executor
from repro.parallel.trace import WorkTrace, project_time
from repro.parallel.transport import PoolTransport


@pytest.fixture(scope="module")
def easy_dataset():
    return make_module_dataset(36, 30, n_modules=3, noise=0.2, heavy_tail=0.0, seed=77)


@pytest.fixture(scope="module")
def easy_result(easy_dataset):
    config = GenomicaConfig(n_modules=3, max_iterations=8)
    return GenomicaLearner(config).learn(easy_dataset.matrix, seed=5)


@pytest.fixture
def pool_builds(monkeypatch):
    """One entry per ``PoolTransport.start`` call: whether it found no pool
    and built one."""
    builds = []
    start = PoolTransport.start

    def counted(transport):
        builds.append(transport._shared is None)
        start(transport)

    monkeypatch.setattr(PoolTransport, "start", counted)
    return builds


@pytest.fixture
def executors(monkeypatch):
    """Every executor a GENOMICA ``learn`` opens during the test."""
    opened = []

    def recording(*args, **kwargs):
        opened.append(open_executor(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr("repro.genomica.learner.open_executor", recording)
    return opened


class TestConfig:
    def test_defaults_valid(self):
        GenomicaConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_modules", 0),
            ("max_iterations", 0),
            ("tree_update_steps", 0),
            ("beta_grid", (1.0, float("nan"))),
            ("rng_backend", "bogus"),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
            GenomicaConfig(**{field: value})


class TestLearning:
    def test_network_partitions_variables(self, easy_dataset, easy_result):
        network = easy_result.network
        labels = network.assignment_labels()
        assert (labels >= 0).all()
        assert sum(m.size for m in network.modules) == easy_dataset.matrix.n_vars

    def test_module_count_fixed(self, easy_result):
        assert easy_result.network.n_modules == 3

    def test_score_history_improves(self, easy_result):
        history = easy_result.score_history
        assert len(history) >= 2
        assert history[-1] > history[0]

    def test_convergence_flag(self, easy_result):
        if easy_result.converged:
            assert easy_result.n_iterations <= 8

    def test_recovers_easy_structure(self, easy_dataset, easy_result):
        ari = module_recovery_score(easy_result.network, easy_dataset.truth)
        assert ari > 0.5

    def test_deterministic(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=4)
        a = GenomicaLearner(config).learn(easy_dataset.matrix, seed=9)
        b = GenomicaLearner(config).learn(easy_dataset.matrix, seed=9)
        assert a.network == b.network
        assert a.score_history == b.score_history

    def test_seed_sensitivity(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=3)
        a = GenomicaLearner(config).learn(easy_dataset.matrix, seed=1)
        b = GenomicaLearner(config).learn(easy_dataset.matrix, seed=2)
        assert not np.array_equal(
            a.network.assignment_labels(), b.network.assignment_labels()
        )

    def test_trees_have_single_best_split(self, easy_result):
        for module in easy_result.network.modules:
            for tree in module.trees:
                for node in tree.internal_nodes():
                    assert len(node.weighted_splits) <= 1
                    for split in node.weighted_splits:
                        assert 0.0 < split.posterior <= 1.0

    def test_parent_scores_present(self, easy_result):
        parents = [
            p for m in easy_result.network.modules for p in m.weighted_parents
        ]
        assert parents

    def test_candidate_parent_restriction(self, easy_dataset):
        config = GenomicaConfig(
            n_modules=3, max_iterations=2, candidate_parents=(0, 1, 2, 3)
        )
        result = GenomicaLearner(config).learn(easy_dataset.matrix, seed=3)
        for module in result.network.modules:
            assert all(p < 4 for p in module.weighted_parents)

    def test_k_larger_than_n_clamped(self):
        ds = make_module_dataset(8, 10, n_modules=2, seed=1)
        config = GenomicaConfig(n_modules=50, max_iterations=2)
        result = GenomicaLearner(config).learn(ds.matrix, seed=1)
        assert result.network.n_modules <= 8

    def test_max_iterations_respected(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=1)
        result = GenomicaLearner(config).learn(easy_dataset.matrix, seed=4)
        assert result.n_iterations == 1


class TestPooledGenomica:
    """The Section 6 extension: every M-step clustering, E-step block and
    final module build on the persistent task-pool executor, with the
    paper's consistency guarantee at any worker count."""

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_identical_to_sequential(self, easy_dataset, easy_result, n_workers):
        config = GenomicaConfig(n_modules=3, max_iterations=8, parallel=ParallelConfig(n_workers=n_workers))
        pooled = GenomicaLearner(config).learn(easy_dataset.matrix, seed=5)
        assert pooled.network == easy_result.network
        assert pooled.n_iterations == easy_result.n_iterations
        assert pooled.converged == easy_result.converged
        assert pooled.score_history == easy_result.score_history

    def test_reversed_dispatch_identical(self, easy_dataset, easy_result, monkeypatch):
        """Blocks and modules dispatched last-first still join in item
        order: the same network and the same scores, bit for bit."""
        monkeypatch.setattr(
            TaskScheduler, "dispatch_order_hook", staticmethod(lambda order: order[::-1])
        )
        config = GenomicaConfig(n_modules=3, max_iterations=8, parallel=ParallelConfig(n_workers=2))
        pooled = GenomicaLearner(config).learn(easy_dataset.matrix, seed=5)
        assert pooled.network == easy_result.network
        assert pooled.score_history == easy_result.score_history

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_items_dispatched(self, easy_dataset, executors, n_workers):
        """Each iteration dispatches k M-step clusterings and one E-step
        block per worker; then come the k final module builds."""
        config = GenomicaConfig(n_modules=3, max_iterations=3, parallel=ParallelConfig(n_workers=n_workers))
        result = GenomicaLearner(config).learn(easy_dataset.matrix, seed=5)
        (executor,) = executors
        k, n = 3, easy_dataset.matrix.n_vars
        assert executor.stats.tasks_dispatched == (
            result.n_iterations * (k + min(n, n_workers)) + k
        )

    def test_mrg_backend(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=3, rng_backend="mrg")
        sequential = GenomicaLearner(config).learn(easy_dataset.matrix, seed=2)
        pooled = GenomicaLearner(
            GenomicaConfig(
                n_modules=3, max_iterations=3, rng_backend="mrg",
                parallel=ParallelConfig(n_workers=2)
            )
        ).learn(easy_dataset.matrix, seed=2)
        assert pooled.network == sequential.network
        assert pooled.score_history == sequential.score_history

    def test_single_pool_construction(self, easy_dataset, pool_builds):
        """One pool (and with it one matrix transfer) per ``learn``: of
        every ``PoolTransport.start`` call, one finds no pool and builds it."""
        config = GenomicaConfig(n_modules=3, max_iterations=3, parallel=ParallelConfig(n_workers=2))
        GenomicaLearner(config).learn(easy_dataset.matrix, seed=5)
        assert sum(pool_builds) == 1

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            GenomicaConfig(parallel=ParallelConfig(n_workers=-1))

    def test_shard_nodes_rejected(self):
        # Shard nodes are out of scope: n_nodes > 1 is refused, not run on
        # one host without a word.
        with pytest.raises(ValueError, match="n_nodes"):
            GenomicaConfig(parallel=ParallelConfig(n_nodes=2))
        with pytest.raises(ValueError, match="n_nodes"):
            GenomicaConfig(parallel=ParallelConfig(n_workers=2, n_nodes=3))

    def test_dropped_flat_knob_rejected(self):
        # The one-release deprecation shim for the flat ``n_workers``
        # field is gone: the old spelling is now a hard error.
        with pytest.raises(TypeError):
            GenomicaConfig(n_workers=2)


class TestEStepBlocks:
    """The E-step runner on any block split decides every variable, and
    scores it, exactly as one whole pass does."""

    @pytest.mark.parametrize("n_blocks", [2, 3, 7, 36])
    def test_blocks_join_to_one_pass(self, easy_dataset, n_blocks):
        data = easy_dataset.matrix.values
        n, m = data.shape
        rng = np.random.default_rng(11)
        assignment = rng.integers(0, 3, size=n)
        leaf_partitions = [
            [np.flatnonzero(labels == leaf) for leaf in range(2)]
            for labels in (rng.integers(0, 2, size=m) for _ in range(3))
        ]
        before = assignment.copy()
        ctx = {"data": data, "config": GenomicaConfig(n_modules=3)}
        whole_labels, whole_scores = _genomica_estep_run(
            ctx, (0, n, assignment, leaf_partitions)
        )
        bounds = np.linspace(0, n, n_blocks + 1).astype(int)
        blocks = [
            _genomica_estep_run(ctx, (int(lo), int(hi), assignment, leaf_partitions))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert np.array_equal(np.concatenate([l for l, _ in blocks]), whole_labels)
        assert np.concatenate([s for _, s in blocks]).tobytes() == whole_scores.tobytes()
        assert np.array_equal(assignment, before)  # a block never writes the old labels


class TestGenomicaTrace:
    def test_trace_recorded_and_projects(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=3)
        trace = WorkTrace()
        result = GenomicaLearner(config).learn(easy_dataset.matrix, seed=5, trace=trace)
        phases = {s.phase for s in trace.steps}
        assert "modules.e_step" in phases
        assert "modules.split_search" in phases
        assert "modules.obs_reassign" in phases
        t1 = project_time(trace, 1).total
        assert t1 == pytest.approx(result.elapsed_seconds, rel=1e-6)
        assert project_time(trace, 16).total < t1

    def test_traced_run_is_pooled_and_counted(self, easy_dataset, pool_builds):
        """A traced run rides the same executor as an untraced one: at two
        workers it builds one pool, its trace steps equal the one-worker
        run's, and the task scorers' kernel counters reach the trace."""
        traces = {}
        for n_workers in (1, 2):
            config = GenomicaConfig(
                n_modules=3, max_iterations=3,
                parallel=ParallelConfig(n_workers=n_workers),
            )
            traces[n_workers] = WorkTrace()
            GenomicaLearner(config).learn(
                easy_dataset.matrix, seed=5, trace=traces[n_workers]
            )
            assert sum(pool_builds) == n_workers - 1
        one, two = traces[1], traces[2]
        assert one.kernel_counters["evaluations"] > 0
        assert two.kernel_counters == one.kernel_counters
        assert len(two.steps) == len(one.steps)
        for a, b in zip(one.steps, two.steps):
            assert (a.phase, a.n_collectives, a.words) == (b.phase, b.n_collectives, b.words)
            np.testing.assert_array_equal(a.costs, b.costs)


class TestBoundaryChecks:
    """Outside input is refused before any pool starts."""

    @pytest.mark.parametrize("n_workers", [1, 2], ids=["one-worker", "pool"])
    def test_missing_values_refused(self, easy_dataset, pool_builds, n_workers):
        values = easy_dataset.matrix.values.copy()
        values[4, 7] = np.nan
        matrix = ExpressionMatrix(values, allow_missing=True)
        config = GenomicaConfig(
            n_modules=3, parallel=ParallelConfig(n_workers=n_workers)
        )
        with pytest.raises(ValueError, match=r"missing values \(NaN\)"):
            GenomicaLearner(config).learn(matrix, seed=1)
        assert pool_builds == []
