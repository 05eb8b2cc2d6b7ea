"""Tests for the GENOMICA-style iterative two-step learner."""

import numpy as np
import pytest

from repro.analysis import module_recovery_score
from repro.data.synthetic import make_module_dataset
from repro.datatypes import ExpressionMatrix
from repro.genomica import (
    GenomicaConfig,
    GenomicaLearner,
    ParallelGenomicaLearner,
)
from repro.core.config import ParallelConfig
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


class TestParallelGenomica:
    """The Section 6 future-work extension: GENOMICA on the paper's
    parallel components, with the same consistency guarantee."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_identical_to_sequential(self, easy_dataset, p):
        config = GenomicaConfig(n_modules=3, max_iterations=3)
        sequential = GenomicaLearner(config).learn(easy_dataset.matrix, seed=5)
        parallel = ParallelGenomicaLearner(config).learn_parallel(
            easy_dataset.matrix, seed=5, p=p
        )
        assert parallel.network == sequential.network
        assert parallel.n_iterations == sequential.n_iterations
        assert parallel.converged == sequential.converged

    def test_score_history_matches_to_float_noise(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=3)
        sequential = GenomicaLearner(config).learn(easy_dataset.matrix, seed=7)
        parallel = ParallelGenomicaLearner(config).learn_parallel(
            easy_dataset.matrix, seed=7, p=3
        )
        assert len(parallel.score_history) == len(sequential.score_history)
        for a, b in zip(parallel.score_history, sequential.score_history):
            assert a == pytest.approx(b, rel=1e-9)

    def test_work_balanced_across_ranks(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=2)
        result = ParallelGenomicaLearner(config).learn_parallel(
            easy_dataset.matrix, seed=3, p=4
        )
        work = result.work_per_rank
        assert work.shape == (4,)
        assert work.max() < 1.5 * work.mean()

    def test_mrg_backend(self, easy_dataset):
        config = GenomicaConfig(n_modules=3, max_iterations=2, rng_backend="mrg")
        sequential = GenomicaLearner(config).learn(easy_dataset.matrix, seed=2)
        parallel = ParallelGenomicaLearner(config).learn_parallel(
            easy_dataset.matrix, seed=2, p=2
        )
        assert parallel.network == sequential.network


class TestPooledGenomica:
    """The final network build on the persistent task-pool executor."""

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_identical_to_sequential(self, easy_dataset, easy_result, n_workers):
        config = GenomicaConfig(n_modules=3, max_iterations=8, parallel=ParallelConfig(n_workers=n_workers))
        pooled = GenomicaLearner(config).learn(easy_dataset.matrix, seed=5)
        assert pooled.network == easy_result.network
        assert pooled.n_iterations == easy_result.n_iterations
        assert pooled.score_history == easy_result.score_history

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
    """Outside input is refused before any pool or rank starts."""

    @pytest.mark.parametrize(
        "n_workers,spmd", [(1, False), (2, False), (1, True)],
        ids=["one-worker", "pool", "spmd"],
    )
    def test_missing_values_refused(
        self, easy_dataset, pool_builds, monkeypatch, n_workers, spmd
    ):
        def no_ranks(*args, **kwargs):
            raise AssertionError("SPMD ranks started on a NaN matrix")

        monkeypatch.setattr("repro.genomica.parallel.run_spmd", no_ranks)
        values = easy_dataset.matrix.values.copy()
        values[4, 7] = np.nan
        matrix = ExpressionMatrix(values, allow_missing=True)
        config = GenomicaConfig(
            n_modules=3, parallel=ParallelConfig(n_workers=n_workers)
        )
        with pytest.raises(ValueError, match=r"missing values \(NaN\)"):
            if spmd:
                ParallelGenomicaLearner(config).learn_parallel(matrix, seed=1, p=2)
            else:
                GenomicaLearner(config).learn(matrix, seed=1)
        assert pool_builds == []
