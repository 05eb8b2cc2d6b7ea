"""Tests for regression-tree building, split scoring and parent learning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import Split, TreeNode
from repro.ganesh.coclustering import SweepHooks
from repro.rng.streams import GibbsRandom, IndexedStream, make_stream
from repro.scoring.kernel import split_sign
from repro.scoring.normal_gamma import DEFAULT_PRIOR
from repro.scoring.split_score import SplitScorer
from repro.trees.hierarchy import build_tree_structure, leaf_order
from repro.trees.parents import accumulate_parent_scores
from repro.trees.splits import (
    NodeSplitScores,
    node_kernel,
    node_posteriors,
    score_node_splits,
    select_node_splits,
)
from tests.reference import (
    _score_scalar,
    build_tree_all_pairs,
    item_uniforms,
    score_node_scalar,
    select_splits_full_table,
)


def _block_and_labels(seed=0, n=4, m=12, k=4):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(n, m))
    labels = rng.integers(0, k, size=m)
    return block, labels


class TestLeafOrder:
    def test_orders_by_mean(self):
        block = np.array([[0.0, 0.0, 5.0, 5.0, -3.0, -3.0]])
        labels = np.array([0, 0, 1, 1, 2, 2])
        leaves = leaf_order(block, labels)
        means = [float(block[:, obs].mean()) for obs in leaves]
        assert means == sorted(means)

    def test_skips_empty_clusters(self):
        block = np.ones((1, 3))
        leaves = leaf_order(block, np.array([0, 2, 2]))
        assert len(leaves) == 2


class TestBuildTree:
    def test_root_covers_all_observations(self):
        block, labels = _block_and_labels()
        tree = build_tree_structure(block, labels, module_id=0)
        np.testing.assert_array_equal(
            tree.root.observations, np.arange(block.shape[1])
        )

    def test_binary_and_consistent(self):
        block, labels = _block_and_labels(seed=1)
        tree = build_tree_structure(block, labels, module_id=0)
        for node in tree.root.internal_nodes():
            assert node.left is not None and node.right is not None
            merged = np.sort(
                np.concatenate([node.left.observations, node.right.observations])
            )
            np.testing.assert_array_equal(node.observations, merged)

    def test_leaves_are_clusters(self):
        block, labels = _block_and_labels(seed=2)
        tree = build_tree_structure(block, labels, module_id=0)
        n_clusters = len(set(labels.tolist()))
        assert tree.n_leaves() == n_clusters
        assert len(tree.internal_nodes()) == n_clusters - 1

    def test_single_cluster_tree_has_no_internal_nodes(self):
        block = np.ones((2, 5))
        tree = build_tree_structure(block, np.zeros(5, dtype=int), module_id=0)
        assert tree.root.is_leaf
        assert tree.internal_nodes() == []

    def test_deterministic(self):
        block, labels = _block_and_labels(seed=3)
        a = build_tree_structure(block, labels, module_id=0)
        b = build_tree_structure(block, labels, module_id=0)
        sig = lambda t: [tuple(n.observations.tolist()) for n in t.internal_nodes()]
        assert sig(a) == sig(b)

    def test_similar_leaves_merge_first(self):
        """Two near-identical observation clusters must merge before a
        distant one joins."""
        block = np.array([[0.0, 0.05, 10.0, 0.1, 10.2, 10.1]])
        labels = np.array([0, 0, 1, 2, 1, 1])
        tree = build_tree_structure(block, labels, module_id=0)
        # Root's two children should separate {low values} from {high}.
        left_mean = block[:, tree.root.left.observations].mean()
        right_mean = block[:, tree.root.right.observations].mean()
        assert abs(left_mean - right_mean) > 5.0

    def test_node_ids_unique(self):
        block, labels = _block_and_labels(seed=4)
        tree = build_tree_structure(block, labels, module_id=0)
        ids = [n.node_id for n in tree.root.internal_nodes()] + [
            n.node_id for n in tree.root.leaves()
        ]
        assert len(ids) == len(set(ids))


def _tree_signature(node: TreeNode):
    if node.is_leaf:
        return (node.node_id, tuple(node.observations.tolist()))
    return (
        node.node_id,
        tuple(node.observations.tolist()),
        _tree_signature(node.left),
        _tree_signature(node.right),
    )


class TestIncrementalMerges:
    """Keeping marginals and adjacent merge scores across rounds builds the
    tree an all-pairs rescan builds, records included."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        m=st.integers(1, 24),
        k=st.integers(1, 12),
        levels=st.sampled_from([None, 1, 2, 3]),
    )
    def test_equals_all_pairs_rescan(self, seed, n, m, k, levels):
        """``levels`` draws the block from that many integer values (one:
        every merge score ties); ``None`` from a normal."""
        rng = np.random.default_rng(seed)
        if levels is None:
            block = rng.normal(size=(n, m))
        else:
            block = rng.integers(0, levels, size=(n, m)).astype(np.float64)
        labels = rng.integers(0, k, size=m)
        records = {"incremental": [], "all_pairs": []}

        def hooks(name):
            return SweepHooks(
                record=lambda phase, costs, nc: records[name].append(
                    (phase, costs.tolist(), nc)
                )
            )

        got = build_tree_structure(
            block, labels, 5, DEFAULT_PRIOR, hooks=hooks("incremental")
        )
        want = build_tree_all_pairs(
            block, labels, 5, DEFAULT_PRIOR, hooks=hooks("all_pairs")
        )
        assert got.module_id == want.module_id
        assert _tree_signature(got.root) == _tree_signature(want.root)
        assert records["incremental"] == records["all_pairs"]
        assert len(records["incremental"]) == len(set(labels.tolist())) - 1


def _scored_node(seed=0, n_vars=6, m=10):
    """Build a small tree and score one internal node."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_vars, m))
    block = data[:3]
    labels = rng.integers(0, 3, size=m)
    tree = build_tree_structure(block, labels, module_id=0)
    nodes = tree.internal_nodes()
    assert nodes, "need an internal node"
    scorer = SplitScorer(max_steps=5)
    istream = IndexedStream(make_stream(seed, "splits", 0), scorer.draws_per_item)
    parents = np.arange(n_vars)
    scores = score_node_splits(data, 0, 0, nodes[0], parents, scorer, istream, 0)
    return data, nodes[0], scores


class TestNodeKernel:
    def test_shape(self):
        data, node, _ = _scored_node()
        kernel = node_kernel(data, node, np.arange(6), SplitScorer())
        n_obs = node.observations.size
        assert kernel.values.shape == (6, n_obs)
        assert kernel.n_items == 6 * n_obs

    def test_orientation(self):
        """Margin of observation o for split (l, v): positive when the
        observation falls on its child's correct side of v."""
        data = np.array([[1.0, 2.0, 3.0, 4.0]])
        left = TreeNode(0, np.array([0, 1]))
        right = TreeNode(1, np.array([2, 3]))
        node = TreeNode(2, np.array([0, 1, 2, 3]), left=left, right=right)
        kernel = node_kernel(data, node, np.array([0]), SplitScorer(beta_grid=(1.0, 2.0)))
        np.testing.assert_array_equal(kernel.sign, [1.0, 1.0, -1.0, -1.0])
        # Split value between children, e.g. v = data[0, 1] = 2.0:
        # left obs (values 1, 2): margin = v - x -> [1, 0]
        # right obs (values 3, 4): margin = x - v -> [1, 2]
        for b, beta in enumerate((1.0, 2.0)):
            got = kernel.scores(kernel.item_groups[[1]], np.array([b]))
            assert got[0] == _score_scalar([1.0, 0.0, 1.0, 2.0], beta)

    def test_scores_match_the_scalar_oracle(self):
        """A node's scored splits are the scalar chains over its candidates,
        each reading its draws of the module's indexed stream."""
        data, node, scores = _scored_node(seed=1)
        scorer = SplitScorer(max_steps=5)
        istream = IndexedStream(make_stream(1, "splits", 0), scorer.draws_per_item)
        log_scores, steps, _beta_idx, accepted = score_node_scalar(
            scorer,
            data[:, node.observations].tolist(),
            split_sign(node.observations, node.left.observations).tolist(),
            [item_uniforms(istream, i) for i in range(scores.n_splits)],
        )
        np.testing.assert_array_equal(scores.log_scores, log_scores)
        np.testing.assert_array_equal(scores.steps, steps)
        np.testing.assert_array_equal(scores.accepted, accepted)


class TestScoreNodeSplits:
    def test_output_shapes(self):
        _, node, scores = _scored_node()
        n = scores.n_splits
        assert scores.log_scores.shape == (n,)
        assert scores.steps.shape == (n,)
        assert scores.accepted.shape == (n,)
        assert n == 6 * node.observations.size

    def test_split_identity_mapping(self):
        data, node, scores = _scored_node(seed=2)
        n_obs = scores.n_obs
        local = n_obs + 2  # parent 1, obs index 2
        assert scores.split_parent(local) == 1
        assert scores.split_value(data, local) == data[1, node.observations[2]]

    def test_work_units(self):
        _, _, scores = _scored_node(seed=3)
        np.testing.assert_array_equal(
            scores.work_units(), scores.steps * scores.n_obs
        )

    def test_deterministic(self):
        _, _, a = _scored_node(seed=4)
        _, _, b = _scored_node(seed=4)
        np.testing.assert_array_equal(a.log_scores, b.log_scores)


class TestPosteriorsAndSelection:
    def test_posteriors_normalize_over_retained(self):
        _, _, scores = _scored_node(seed=5)
        retained, post = node_posteriors(scores)
        np.testing.assert_array_equal(retained, np.flatnonzero(scores.accepted))
        assert post.shape == retained.shape
        if scores.accepted.any():
            assert post.sum() == pytest.approx(1.0)

    def test_selection_counts(self):
        data, _, scores = _scored_node(seed=6)
        rng = GibbsRandom(make_stream(1, "sel"))
        weighted, uniform = select_node_splits(data, scores, rng, n_select=3)
        assert len(uniform) == 3
        assert len(weighted) in (0, 3)

    def test_selected_splits_reference_node(self):
        data, node, scores = _scored_node(seed=7)
        rng = GibbsRandom(make_stream(2, "sel"))
        weighted, uniform = select_node_splits(data, scores, rng, n_select=2)
        for split in weighted + uniform:
            assert split.node_id == node.node_id
            assert split.n_obs == node.observations.size
            assert 0 <= split.parent < data.shape[0]

    @pytest.mark.parametrize("n_select", [1, 2, 5])
    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_one_table_per_node_selects_what_a_table_per_draw_did(self, seed, n_select):
        """The weighted draws share one choice table per node; they still
        interleave with the uniform ones, each taking one draw."""
        data, _, scores = _scored_node(seed=seed)

        def per_draw_tables(rng):  # the loop as it was: a table per draw
            retained, post = node_posteriors(scores)
            posteriors = np.zeros(scores.n_splits)
            posteriors[retained] = post
            weighted, uniform = [], []

            def make_split(local_index):
                return Split(
                    parent=scores.split_parent(local_index),
                    value=scores.split_value(data, local_index),
                    node_id=scores.node.node_id,
                    posterior=float(posteriors[local_index]),
                    n_obs=scores.n_obs,
                )

            for _ in range(n_select):
                if scores.accepted.any():
                    log_weights = np.where(
                        posteriors > 0, np.log(np.maximum(posteriors, 1e-300)), -np.inf
                    )
                    weighted.append(make_split(rng.weighted_choice_logs(log_weights)))
                uniform.append(make_split(rng.randint(scores.n_splits)))
            return weighted, uniform

        rng, oracle = (GibbsRandom(make_stream(seed, "sel")) for _ in range(2))
        assert select_node_splits(data, scores, rng, n_select) == per_draw_tables(oracle)
        assert rng.offset == oracle.offset

    def test_weighted_selection_prefers_high_posterior(self):
        data, _, scores = _scored_node(seed=8)
        _, post = node_posteriors(scores)
        if not scores.accepted.any():
            pytest.skip("no retained splits for this seed")
        rng = GibbsRandom(make_stream(3, "sel"))
        picks = []
        for _ in range(50):
            weighted, _ = select_node_splits(data, scores, rng, n_select=1)
            picks.append(weighted[0].posterior)
        assert np.mean(picks) >= post[post > 0].mean() * 0.5


class _GivenUniforms:
    """A replicated stream that hands out the given uniforms, in a cycle."""

    def __init__(self, values) -> None:
        self.values = list(values)
        self.offset = 0

    def next_uniform(self) -> float:
        value = self.values[self.offset % len(self.values)]
        self.offset += 1
        return value


def _synthetic_scores(log_scores, accepted, n_obs: int, seed: int):
    """A scored node with the given flat log-scores and acceptance."""
    rng = np.random.default_rng(seed)
    n_parents = log_scores.size // n_obs
    data = rng.normal(size=(n_parents + 1, 2 * n_obs))
    node = TreeNode(node_id=7, observations=np.arange(n_obs) * 2 + 1)
    scores = NodeSplitScores(
        module_id=0,
        tree_index=0,
        node=node,
        parents=np.arange(n_parents, dtype=np.int64)[::-1] + 1,
        base_index=0,
        log_scores=np.asarray(log_scores, dtype=np.float64),
        steps=np.ones(log_scores.size, dtype=np.int64),
        accepted=np.asarray(accepted, dtype=bool),
    )
    return data, scores


@st.composite
def _node_scores(draw):
    """Log-scores and acceptance of one node: any mix, none, all or one
    accepted, spreads past ``exp``'s range (retained posteriors that
    underflow to 0) and quantization ties."""
    n_obs = draw(st.integers(1, 12))
    n = n_obs * draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from(["normal", "underflow", "ties"]))
    if spread == "normal":
        logs = rng.normal(scale=5.0, size=n)
    elif spread == "underflow":  # log-score spread > 745
        logs = rng.uniform(-3000.0, 0.0, size=n)
    else:  # a third of the decision quantum apart: one grid point, tied
        logs = rng.choice([-1.0, -1.0 + 3e-10, -1.0 - 3e-10, -2.0], size=n)
    accept = draw(st.sampled_from(["mixed", "none", "all", "one"]))
    if accept == "mixed":
        accepted = rng.random(n) < 0.3
    elif accept == "one":
        accepted = np.zeros(n, dtype=bool)
        accepted[rng.integers(n)] = True
    else:
        accepted = np.full(n, accept == "all")
    return _synthetic_scores(logs, accepted, n_obs, seed)


class TestRetainedOnlySelection:
    """Selection over the retained splits draws what one full-length table
    over every candidate drew (``tests/reference.py``'s oracle): the same
    splits, posteriors and stream offset."""

    @settings(max_examples=300, deadline=None)
    @given(node=_node_scores(), n_select=st.integers(1, 4), seed=st.integers(0, 1000))
    def test_equals_full_table(self, node, n_select, seed):
        data, scores = node
        rng, oracle = (GibbsRandom(make_stream(seed, "sel")) for _ in range(2))
        got = select_node_splits(data, scores, rng, n_select)
        assert got == select_splits_full_table(data, scores, oracle, n_select)
        assert rng.offset == oracle.offset
        if scores.accepted.any():
            assert len(got[0]) == n_select
        else:
            assert got[0] == []

    @settings(max_examples=200, deadline=None)
    @given(node=_node_scores(), k=st.integers(0, 10**6))
    def test_uniform_on_or_past_the_last_cumulative_weight(self, node, k):
        """Uniforms that scale onto a cumulative weight (``searchsorted``'s
        right side), onto the total and past it: both tables pick alike,
        the last option when the draw falls off the end."""
        data, scores = node
        retained, post = node_posteriors(scores)
        uniforms = [0.0, 1.0, np.nextafter(1.0, 0.0)]
        if retained.size:
            full = np.zeros(scores.n_splits)
            full[retained] = post
            table = GibbsRandom.choice_table(
                np.where(full > 0, np.log(np.maximum(full, 1e-300)), -np.inf)
            )
            on = table.cum[k % table.cum.size]
            x = on / table.total
            for _ in range(4):  # walk onto a uniform with x * total == on
                if x * table.total == on:
                    uniforms.append(x)
                    break
                x = np.nextafter(x, np.inf if x * table.total < on else -np.inf)
        rng = GibbsRandom(_GivenUniforms(uniforms))
        oracle = GibbsRandom(_GivenUniforms(uniforms))
        n_select = len(uniforms)
        got = select_node_splits(data, scores, rng, n_select)
        assert got == select_splits_full_table(data, scores, oracle, n_select)
        assert rng.offset == oracle.offset

    def test_past_the_end_picks_the_last_option(self):
        """Force ``u * total`` past the running sum: the pick is
        ``n_splits - 1``, as the full table's ``min(idx, size - 1)``."""
        logs = np.zeros(12)
        accepted = np.zeros(12, dtype=bool)
        accepted[[2, 5]] = True
        data, scores = _synthetic_scores(logs, accepted, 3, seed=0)
        rng = GibbsRandom(_GivenUniforms([2.0]))  # u = 2 * total
        weighted, _ = select_node_splits(data, scores, rng, 1)
        assert weighted[0].parent == scores.split_parent(11)
        assert weighted[0].posterior == 0.0


class TestParentScores:
    def test_weighted_average(self):
        splits = [
            Split(parent=1, value=0.0, node_id=0, posterior=0.8, n_obs=10),
            Split(parent=1, value=0.1, node_id=1, posterior=0.4, n_obs=30),
            Split(parent=2, value=0.2, node_id=0, posterior=0.5, n_obs=10),
        ]
        scores = accumulate_parent_scores(splits)
        assert scores[1] == pytest.approx((0.8 * 10 + 0.4 * 30) / 40)
        assert scores[2] == pytest.approx(0.5)

    def test_empty(self):
        assert accumulate_parent_scores([]) == {}

    def test_sorted_keys(self):
        splits = [
            Split(parent=5, value=0, node_id=0, posterior=0.1, n_obs=1),
            Split(parent=2, value=0, node_id=0, posterior=0.1, n_obs=1),
        ]
        assert list(accumulate_parent_scores(splits)) == [2, 5]
