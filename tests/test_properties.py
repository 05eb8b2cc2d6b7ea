"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* seed, shape or input the strategies
generate — the contracts downstream users rely on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consensus import consensus_clusters
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_from_json, network_to_json
from repro.data.synthetic import make_module_dataset
from repro.datatypes import Module, ModuleNetwork, RegressionTree, Split, TreeNode
from repro.parallel.engine import ParallelLearner

FAST = LearnerConfig(max_sampling_steps=3)
SLOW_OK = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Learner-level invariants
# ---------------------------------------------------------------------------


class TestLearnerInvariants:
    @given(seed=st.integers(0, 10_000))
    @SLOW_OK
    def test_output_is_a_partition(self, seed):
        matrix = make_module_dataset(14, 8, n_modules=2, seed=1).matrix
        network = LemonTreeLearner(FAST).learn(matrix, seed=seed).network
        labels = network.assignment_labels()
        assert (labels >= 0).all()
        assert sum(m.size for m in network.modules) == matrix.n_vars
        # every tree's root covers all observations
        for module in network.modules:
            for tree in module.trees:
                assert tree.root.observations.size == matrix.n_obs

    @given(seed=st.integers(0, 10_000))
    @SLOW_OK
    def test_parent_scores_are_probabilities(self, seed):
        matrix = make_module_dataset(14, 8, n_modules=2, seed=2).matrix
        network = LemonTreeLearner(FAST).learn(matrix, seed=seed).network
        for module in network.modules:
            for score in module.weighted_parents.values():
                assert 0.0 <= score <= 1.0 + 1e-12
            for score in module.uniform_parents.values():
                assert 0.0 <= score <= 1.0 + 1e-12

    @given(seed=st.integers(0, 10_000))
    @SLOW_OK
    def test_json_roundtrip_of_learned_networks(self, seed):
        matrix = make_module_dataset(12, 8, n_modules=2, seed=3).matrix
        network = LemonTreeLearner(FAST).learn(matrix, seed=seed).network
        assert network_from_json(network_to_json(network)) == network

    @given(seed=st.integers(0, 500), p=st.sampled_from([2, 3]))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_parallel_consistency_for_arbitrary_seeds(self, seed, p):
        """The paper's consistency property, probed over random seeds
        rather than the fixed ones in test_consistency.py."""
        matrix = make_module_dataset(12, 8, n_modules=2, seed=4).matrix
        sequential = LemonTreeLearner(FAST).learn(matrix, seed=seed)
        parallel = ParallelLearner(FAST).learn(matrix, seed=seed, p=p)
        assert parallel.network == sequential.network


# ---------------------------------------------------------------------------
# Dispatch invariants
# ---------------------------------------------------------------------------


class TestDispatchInvariants:
    @given(
        seed=st.integers(0, 500),
        backend=st.sampled_from(["philox", "mrg"]),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_dynamic_bit_identical_to_static_and_serial(self, seed, backend):
        """How the shared queue is cut moves work between workers, never
        changes it: the learned network equals the static-schedule and
        single-worker runs."""
        matrix = make_module_dataset(12, 8, n_modules=2, seed=5).matrix
        base = LearnerConfig(max_sampling_steps=3, rng_backend=backend)
        serial = LemonTreeLearner(base).learn(matrix, seed=seed).network
        dynamic = LemonTreeLearner(
            base.with_updates(
                parallel=ParallelConfig(n_workers=2, schedule="dynamic")
            )
        ).learn(matrix, seed=seed).network
        static = LemonTreeLearner(
            base.with_updates(
                parallel=ParallelConfig(n_workers=2, schedule="static")
            )
        ).learn(matrix, seed=seed).network
        assert dynamic == serial
        assert static == serial


# ---------------------------------------------------------------------------
# Consensus invariants
# ---------------------------------------------------------------------------


class TestConsensusInvariants:
    @given(
        n=st.integers(4, 20),
        n_samples=st.integers(1, 6),
        n_clusters=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_consensus_is_a_partition(self, n, n_samples, n_clusters, seed):
        rng = np.random.default_rng(seed)
        samples = [rng.integers(0, n_clusters, size=n) for _ in range(n_samples)]
        clusters = consensus_clusters(samples, threshold=0.3)
        flat = sorted(v for c in clusters for v in c)
        assert flat == list(range(n))

    @given(n=st.integers(4, 15), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_unanimous_ensemble_recovered_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=n)
        clusters = consensus_clusters([labels] * 4, threshold=0.5)
        expected = sorted(
            sorted(np.flatnonzero(labels == cid).tolist())
            for cid in np.unique(labels)
        )
        assert sorted(map(sorted, clusters)) == expected


# ---------------------------------------------------------------------------
# Serialization invariants over synthetic networks
# ---------------------------------------------------------------------------


@st.composite
def module_networks(draw):
    n_vars = draw(st.integers(2, 12))
    n_modules = draw(st.integers(1, min(4, n_vars)))
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(1, n_vars - 1),
                min_size=n_modules - 1,
                max_size=n_modules - 1,
                unique=True,
            )
        )
    )
    bounds = [0] + boundaries + [n_vars]
    modules = []
    for mid in range(n_modules):
        members = list(range(bounds[mid], bounds[mid + 1]))
        n_parents = draw(st.integers(0, 3))
        parents = {
            draw(st.integers(0, n_vars - 1)): draw(
                st.floats(0, 1, allow_nan=False)
            )
            for _ in range(n_parents)
        }
        obs = np.arange(draw(st.integers(1, 6)))
        root = TreeNode(node_id=0, observations=obs)
        root.weighted_splits = [
            Split(
                parent=draw(st.integers(0, n_vars - 1)),
                value=draw(st.floats(-5, 5, allow_nan=False)),
                node_id=0,
                posterior=draw(st.floats(0, 1, allow_nan=False)),
                n_obs=int(obs.size),
            )
            for _ in range(draw(st.integers(0, 2)))
        ]
        modules.append(
            Module(
                module_id=mid,
                members=members,
                trees=[RegressionTree(module_id=mid, root=root)],
                weighted_parents=parents,
            )
        )
    names = [f"v{i}" for i in range(n_vars)]
    return ModuleNetwork(modules, names, n_obs=8)


class TestSerializationProperties:
    @given(network=module_networks())
    @settings(max_examples=50, deadline=None)
    def test_json_roundtrip_identity(self, network):
        assert network_from_json(network_to_json(network)) == network

    @given(network=module_networks())
    @settings(max_examples=30, deadline=None)
    def test_signature_stable(self, network):
        assert network.signature() == network.signature()

    @given(network=module_networks())
    @settings(max_examples=30, deadline=None)
    def test_xml_well_formed(self, network):
        import xml.etree.ElementTree as ET

        from repro.core.output import network_to_xml

        root = ET.fromstring(network_to_xml(network))
        assert len(root.findall("Module")) == network.n_modules
