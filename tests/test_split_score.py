"""Tests for the candidate-split posterior scorer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng.streams import make_stream
from repro.scoring.kernel import LazySplitKernel
from repro.scoring.split_score import DEFAULT_BETA_GRID, SplitScorer
from tests.reference import _neighbor_scalar, score_node_scalar


def _uniform_block(n_items, dpi, seed=0):
    return make_stream(seed, "u").block(0, n_items * dpi).reshape(n_items, dpi)


class TestConstruction:
    def test_defaults(self):
        scorer = SplitScorer()
        assert scorer.draws_per_item == 1 + 2 * scorer.max_steps

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SplitScorer(max_steps=0)
        with pytest.raises(ValueError):
            SplitScorer(stop_repeats=0)
        with pytest.raises(ValueError):
            SplitScorer(beta_grid=(1.0,))


class TestNeighborProposal:
    def test_reflects_at_ends(self):
        assert _neighbor_scalar(0, 0.1, 5) == 1
        assert _neighbor_scalar(4, 0.9, 5) == 3

    def test_moves_one_step(self):
        assert _neighbor_scalar(2, 0.1, 5) == 1
        assert _neighbor_scalar(2, 0.9, 5) == 3


def _node(rng, n_parents, n_obs):
    """A node's ``(values, sign)``: random parent values, a random side."""
    values = rng.normal(0, 1.5, size=(n_parents, n_obs))
    return values, np.where(rng.random(n_obs) < 0.5, 1.0, -1.0)


def _score(scorer, values, sign, uniforms):
    kernel = LazySplitKernel(values, sign, scorer.beta_grid)
    return kernel, scorer.score_batch_kernel(kernel, uniforms)


class TestBatchVsScalar:
    """The vectorized and pure-Python chains must agree item by item —
    the cross-implementation consistency contract — across the chain's
    early-stopping corners."""

    @given(
        seed=st.integers(0, 500),
        n_obs=st.integers(1, 12),
        max_steps=st.sampled_from([1, 2, 5, 6, 10]),
        stop_repeats=st.sampled_from([1, 2, 3, 5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_identical_results(self, seed, n_obs, max_steps, stop_repeats):
        rng = np.random.default_rng(seed)
        scorer = SplitScorer(max_steps=max_steps, stop_repeats=stop_repeats)
        values, sign = _node(rng, 2, n_obs)
        uniforms = _uniform_block(values.size, scorer.draws_per_item, seed)
        _kernel, batch = _score(scorer, values, sign, uniforms)
        for got, want in zip(batch, score_node_scalar(scorer, values, sign, uniforms)):
            np.testing.assert_array_equal(got, want)


class TestChainBehaviour:
    def test_steps_bounded(self):
        scorer = SplitScorer(max_steps=7)
        values, sign = _node(np.random.default_rng(1), 4, 5)
        _k, (_s, steps, _b, _a) = _score(
            scorer, values, sign, _uniform_block(20, scorer.draws_per_item, 1)
        )
        assert (steps >= 1).all() and (steps <= 7).all()

    def test_step_counts_vary(self):
        """Variable per-split cost is the load-imbalance driver (5.3.1)."""
        scorer = SplitScorer(max_steps=10)
        values, sign = _node(np.random.default_rng(2), 25, 8)
        _k, (_s, steps, _b, _a) = _score(
            scorer, values, sign, _uniform_block(200, scorer.draws_per_item, 2)
        )
        assert len(set(steps.tolist())) > 1

    #: five left observations 3 below the split value 0.0, five right ones
    #: 3 above it, and the candidate's own observation (margin 0)
    SEPARATED = np.array([[-3.0] * 5 + [3.0] * 5 + [0.0]])
    SIDES = np.array([1.0] * 5 + [-1.0] * 6)

    def test_perfect_split_accepted(self):
        """A split whose margins are all strongly positive separates the
        children perfectly and must beat the coin-flip baseline."""
        scorer = SplitScorer(max_steps=8)
        _k, (scores, _steps, _b, accepted) = _score(
            scorer, self.SEPARATED, self.SIDES, _uniform_block(11, scorer.draws_per_item, 3)
        )
        assert accepted[10]
        assert scores[10] > 11 * math.log(0.5)

    def test_anti_split_rejected(self):
        """All-negative margins (observations on the wrong side) cannot
        beat the baseline."""
        scorer = SplitScorer(max_steps=8)
        _k, (scores, _steps, _b, accepted) = _score(
            scorer, self.SEPARATED, -self.SIDES, _uniform_block(11, scorer.draws_per_item, 4)
        )
        assert not accepted[10]
        assert scores[10] < 11 * math.log(0.5)

    def test_score_at_most_zero(self):
        """log sigmoid <= 0 always, so scores are non-positive."""
        scorer = SplitScorer(max_steps=5)
        values, sign = _node(np.random.default_rng(5), 7, 7)
        _k, (scores, *_) = _score(
            scorer, values, sign, _uniform_block(49, scorer.draws_per_item, 5)
        )
        assert (scores <= 1e-12).all()

    def test_determinism(self):
        scorer = SplitScorer(max_steps=5)
        values, sign = _node(np.random.default_rng(6), 2, 5)
        u = _uniform_block(10, scorer.draws_per_item, 6)
        _k, a = _score(scorer, values, sign, u)
        _k, b = _score(scorer, values, sign, u)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_large_margins_stable(self):
        """Margins of +-1000 saturate the sigmoid without overflowing."""
        scorer = SplitScorer(max_steps=3)
        values = np.array([[0.0, -1000.0, 1000.0, 500.0]])
        sign = np.array([1.0, 1.0, 1.0, -1.0])
        _k, (scores, *_) = _score(
            scorer, values, sign, _uniform_block(4, scorer.draws_per_item, 7)
        )
        assert np.isfinite(scores).all()
        want = score_node_scalar(scorer, values, sign, _uniform_block(4, scorer.draws_per_item, 7))
        np.testing.assert_array_equal(scores, want[0])

    def test_result_independent_of_batching(self):
        """Scoring a node's parents in one kernel or in two blocks must
        agree — the property that makes split mode's parent blocks exact."""
        scorer = SplitScorer(max_steps=6)
        values, sign = _node(np.random.default_rng(8), 4, 6)
        u = _uniform_block(24, scorer.draws_per_item, 8)
        _k, full = _score(scorer, values, sign, u)
        _k, first = _score(scorer, values[:1], sign, u[:6])
        _k, second = _score(scorer, values[1:], sign, u[6:])
        for whole, a, b in zip(full, first, second):
            np.testing.assert_array_equal(whole, np.concatenate([a, b]))


class TestMemoizedBatchVsScalar:
    """The memoized chain must stay bit-identical to the scalar reference
    across the chain's early-stopping corners where the memo is shared —
    duplicate values, so candidates of one group read one cached score
    table — and chunked, and the memo must observably do its job."""

    @given(
        seed=st.integers(0, 500),
        n_obs=st.integers(2, 10),
        max_steps=st.sampled_from([1, 2, 5, 10]),
        stop_repeats=st.sampled_from([1, 2, 3, 5]),
        chunk_rows=st.sampled_from([1, 2, 1000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_across_corners(
        self, seed, n_obs, max_steps, stop_repeats, chunk_rows
    ):
        rng = np.random.default_rng(seed)
        scorer = SplitScorer(max_steps=max_steps, stop_repeats=stop_repeats)
        values, sign = _node(rng, 3, n_obs)
        values = np.round(values)
        uniforms = _uniform_block(values.size, scorer.draws_per_item, seed)
        kernel = LazySplitKernel(
            values, sign, scorer.beta_grid, max_chunk_elements=chunk_rows * n_obs
        )
        batch = scorer.score_batch_kernel(kernel, uniforms)
        assert kernel.peak_chunk_elements <= chunk_rows * n_obs
        for got, want in zip(batch, score_node_scalar(scorer, values, sign, uniforms)):
            np.testing.assert_array_equal(got, want)

    def test_memoization_hits_counted(self):
        """A multi-step chain over a 7-point grid must revisit betas: the
        kernel's memo serves those lookups from cache and counts them."""
        scorer = SplitScorer(max_steps=10, stop_repeats=3)
        values, sign = _node(np.random.default_rng(11), 5, 8)
        kernel, (_s, steps, _b, _a) = _score(
            scorer, values, sign, _uniform_block(40, scorer.draws_per_item, 11)
        )
        # Every lookup is either a fresh evaluation or a cache hit (no two
        # candidates share a group: the values are continuous)...
        assert kernel.n_groups == 40
        lookups = 40 + int(steps.sum())  # initial scores + one per step
        assert kernel.hits + kernel.evaluations == lookups
        # ...the cache is bounded by the (group, beta) table...
        assert kernel.evaluations <= 40 * scorer.beta_grid.size
        # ...and chains long enough to bounce between grid points hit it.
        assert kernel.hits > 0

    def test_memo_bounds_evaluations_per_item(self):
        """No (group, beta) pair is ever evaluated twice in one chain."""
        scorer = SplitScorer(max_steps=25, stop_repeats=2)
        values, sign = _node(np.random.default_rng(12), 5, 6)
        kernel, _ = _score(scorer, values, sign, _uniform_block(30, scorer.draws_per_item, 12))
        assert kernel.evaluations <= kernel.n_groups * scorer.beta_grid.size


class TestGrid:
    def test_default_grid_sorted_positive(self):
        grid = np.asarray(DEFAULT_BETA_GRID)
        assert (grid > 0).all()
        assert (np.diff(grid) > 0).all()

    def test_custom_grid(self):
        scorer = SplitScorer(beta_grid=(0.5, 1.0, 2.0), max_steps=4)
        values, sign = _node(np.random.default_rng(9), 1, 5)
        _k, (_s, _steps, betas, _a) = _score(
            scorer, values, sign, _uniform_block(5, scorer.draws_per_item, 9)
        )
        assert (betas >= 0).all() and (betas < 3).all()
