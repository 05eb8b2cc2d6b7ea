"""Tests for the SPMD parallel learner (Algorithms 1-6)."""

import numpy as np
import pytest

from repro.core.config import LearnerConfig
from repro.core.learner import LemonTreeLearner
from repro.parallel.engine import ParallelLearner


class TestConsistency:
    """The paper's core property (Section 3): the parallel learner yields
    exactly the sequential network for every processor count."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_identical_to_sequential(self, tiny_matrix, fast_config, p):
        sequential = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=5)
        parallel = ParallelLearner(fast_config).learn(tiny_matrix, seed=5, p=p)
        assert parallel.network == sequential.network

    def test_identical_across_seeds(self, tiny_matrix, fast_config):
        for seed in (1, 2, 9):
            sequential = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=seed)
            parallel = ParallelLearner(fast_config).learn(tiny_matrix, seed=seed, p=3)
            assert parallel.network == sequential.network

    def test_mrg_backend(self, tiny_matrix):
        config = LearnerConfig(max_sampling_steps=3, rng_backend="mrg")
        sequential = LemonTreeLearner(config).learn(tiny_matrix, seed=2)
        parallel = ParallelLearner(config).learn(tiny_matrix, seed=2, p=2)
        assert parallel.network == sequential.network

    def test_multi_ganesh_runs_grouped(self, tiny_matrix):
        """G=3 runs on p=3: each group of one rank handles one run
        (Section 3.2.1) and the result still matches sequential."""
        config = LearnerConfig(n_ganesh_runs=3, max_sampling_steps=3)
        sequential = LemonTreeLearner(config).learn(tiny_matrix, seed=4)
        parallel = ParallelLearner(config).learn(tiny_matrix, seed=4, p=3)
        assert parallel.network == sequential.network

    def test_multi_ganesh_runs_more_ranks_than_runs(self, tiny_matrix):
        config = LearnerConfig(n_ganesh_runs=2, max_sampling_steps=3)
        sequential = LemonTreeLearner(config).learn(tiny_matrix, seed=6)
        parallel = ParallelLearner(config).learn(tiny_matrix, seed=6, p=4)
        assert parallel.network == sequential.network

    def test_candidate_parent_subset(self, tiny_matrix):
        config = LearnerConfig(
            max_sampling_steps=3, candidate_parents=tuple(range(8))
        )
        sequential = LemonTreeLearner(config).learn(tiny_matrix, seed=3)
        parallel = ParallelLearner(config).learn(tiny_matrix, seed=3, p=2)
        assert parallel.network == sequential.network
        for module in parallel.network.modules:
            assert all(parent < 8 for parent in module.weighted_parents)


class TestWorkAccounting:
    def test_work_recorded_per_rank(self, tiny_matrix, fast_config):
        result = ParallelLearner(fast_config).learn(tiny_matrix, seed=1, p=3)
        assert result.work_per_rank.shape == (3,)
        assert (result.work_per_rank > 0).all()

    def test_total_work_independent_of_p(self, tiny_matrix, fast_config):
        """Same computation, different partition: the unit totals agree."""
        totals = [
            ParallelLearner(fast_config)
            .learn(tiny_matrix, seed=1, p=p)
            .work_per_rank.sum()
            for p in (1, 2, 4)
        ]
        assert totals[0] == pytest.approx(totals[1], rel=1e-9)
        assert totals[0] == pytest.approx(totals[2], rel=1e-9)

    def test_work_roughly_balanced(self, small_matrix, fast_config):
        result = ParallelLearner(fast_config).learn(small_matrix, seed=2, p=4)
        work = result.work_per_rank
        assert work.max() < 2.5 * work.mean()


class TestLearnWithComm:
    def test_serial_comm_path(self, tiny_matrix, fast_config):
        """The rank body on a serial communicator is the sequential learner."""
        from repro.parallel.comm import SerialComm

        learner = ParallelLearner(fast_config)
        network, units = learner._rank_main(SerialComm(), tiny_matrix, 7, learner._scorer())
        sequential = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=7)
        assert network == sequential.network
        assert units > 0
