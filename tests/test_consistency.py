"""Cross-implementation consistency: the paper's central verification.

Section 4.1: "we ... ensured that our implementation produces exactly the
same output as Lemon-Tree, given the same input data set and execution
parameters"; Section 3: the parallel algorithm is designed "to ensure
consistency of results with the sequential Lemon-Tree implementation".
Here: optimized sequential == pure-Python reference == SPMD parallel at
every p, for multiple seeds, configurations and RNG backends.
"""

import numpy as np
import pytest

from repro.core.config import LearnerConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_from_json, network_to_json
from repro.parallel.engine import ParallelLearner
from tests.reference import ReferenceLearner


class TestOptimizedVsReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identical_networks(self, tiny_matrix, fast_config, seed):
        optimized = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=seed)
        reference = ReferenceLearner(fast_config).learn(tiny_matrix, seed=seed)
        assert optimized.network == reference.network

    def test_identical_on_structured_data(self, small_matrix, fast_config):
        optimized = LemonTreeLearner(fast_config).learn(small_matrix, seed=5)
        reference = ReferenceLearner(fast_config).learn(small_matrix, seed=5)
        assert optimized.network == reference.network

    def test_identical_with_more_update_steps(self, tiny_matrix):
        config = LearnerConfig(n_update_steps=2, max_sampling_steps=4)
        optimized = LemonTreeLearner(config).learn(tiny_matrix, seed=8)
        reference = ReferenceLearner(config).learn(tiny_matrix, seed=8)
        assert optimized.network == reference.network

    def test_identical_with_multiple_trees(self, tiny_matrix):
        config = LearnerConfig(
            tree_update_steps=3, tree_burn_in=1, max_sampling_steps=3
        )
        optimized = LemonTreeLearner(config).learn(tiny_matrix, seed=9)
        reference = ReferenceLearner(config).learn(tiny_matrix, seed=9)
        assert optimized.network == reference.network

    def test_identical_with_multiple_ganesh_runs(self, tiny_matrix):
        config = LearnerConfig(n_ganesh_runs=2, max_sampling_steps=3)
        optimized = LemonTreeLearner(config).learn(tiny_matrix, seed=10)
        reference = ReferenceLearner(config).learn(tiny_matrix, seed=10)
        assert optimized.network == reference.network

    def test_identical_with_mrg_backend(self, tiny_matrix):
        config = LearnerConfig(max_sampling_steps=3, rng_backend="mrg")
        optimized = LemonTreeLearner(config).learn(tiny_matrix, seed=11)
        reference = ReferenceLearner(config).learn(tiny_matrix, seed=11)
        assert optimized.network == reference.network

    def test_identical_with_candidate_parents(self, tiny_matrix):
        config = LearnerConfig(
            max_sampling_steps=3, candidate_parents=tuple(range(0, 20, 2))
        )
        optimized = LemonTreeLearner(config).learn(tiny_matrix, seed=12)
        reference = ReferenceLearner(config).learn(tiny_matrix, seed=12)
        assert optimized.network == reference.network


class TestThreeWayAgreement:
    def test_all_three_agree(self, tiny_matrix, fast_config):
        optimized = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=21).network
        reference = ReferenceLearner(fast_config).learn(tiny_matrix, seed=21).network
        parallel = ParallelLearner(fast_config).learn(tiny_matrix, seed=21, p=3).network
        assert optimized == reference
        assert optimized == parallel

    def test_agreement_survives_serialization(self, tiny_matrix, fast_config):
        optimized = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=22).network
        parallel = ParallelLearner(fast_config).learn(tiny_matrix, seed=22, p=2).network
        assert network_from_json(network_to_json(optimized)) == network_from_json(
            network_to_json(parallel)
        )


class TestSeedSensitivity:
    def test_different_seeds_differ(self, tiny_matrix, fast_config):
        a = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=1).network
        b = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=2).network
        assert a != b

    def test_same_seed_reproduces(self, tiny_matrix, fast_config):
        a = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=7).network
        b = LemonTreeLearner(fast_config).learn(tiny_matrix, seed=7).network
        assert a == b
        assert a.signature() == b.signature()
