"""Tests for the candidate-split posterior scorer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng.streams import IndexedStream, make_stream
from repro.scoring.split_score import DEFAULT_BETA_GRID, SplitScorer
from tests.reference import _neighbor_scalar, score_one


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


class TestBatchVsScalar:
    """The vectorized and pure-Python chains must agree item by item —
    the cross-implementation consistency contract."""

    @given(seed=st.integers(0, 200), n_obs=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_identical_results(self, seed, n_obs):
        rng = np.random.default_rng(seed)
        scorer = SplitScorer(max_steps=6)
        n_items = 8
        margins = rng.normal(0, 1.5, size=(n_items, n_obs))
        uniforms = _uniform_block(n_items, scorer.draws_per_item, seed)
        scores, steps, betas, accepted = scorer.score_batch(margins, uniforms)
        for i in range(n_items):
            one = score_one(scorer, list(margins[i]), list(uniforms[i]))
            assert one.log_score == scores[i]
            assert one.steps == steps[i]
            assert one.beta_index == betas[i]
            assert one.accepted == accepted[i]


class TestChainBehaviour:
    def test_steps_bounded(self):
        scorer = SplitScorer(max_steps=7)
        margins = np.random.default_rng(1).normal(size=(20, 6))
        _s, steps, _b, _a = scorer.score_batch(
            margins, _uniform_block(20, scorer.draws_per_item, 1)
        )
        assert (steps >= 1).all() and (steps <= 7).all()

    def test_step_counts_vary(self):
        """Variable per-split cost is the load-imbalance driver (5.3.1)."""
        scorer = SplitScorer(max_steps=10)
        margins = np.random.default_rng(2).normal(size=(200, 8))
        _s, steps, _b, _a = scorer.score_batch(
            margins, _uniform_block(200, scorer.draws_per_item, 2)
        )
        assert len(set(steps.tolist())) > 1

    def test_perfect_split_accepted(self):
        """A split whose margins are all strongly positive separates the
        children perfectly and must beat the coin-flip baseline."""
        scorer = SplitScorer(max_steps=8)
        margins = np.full((1, 10), 3.0)
        _s, _steps, _b, accepted = scorer.score_batch(
            margins, _uniform_block(1, scorer.draws_per_item, 3)
        )
        assert accepted[0]

    def test_anti_split_rejected(self):
        """All-negative margins (observations on the wrong side) cannot
        beat the baseline."""
        scorer = SplitScorer(max_steps=8)
        margins = np.full((1, 10), -3.0)
        scores, _steps, _b, accepted = scorer.score_batch(
            margins, _uniform_block(1, scorer.draws_per_item, 4)
        )
        assert not accepted[0]
        assert scores[0] < 10 * math.log(0.5)

    def test_score_at_most_zero(self):
        """log sigmoid <= 0 always, so scores are non-positive."""
        scorer = SplitScorer(max_steps=5)
        margins = np.random.default_rng(5).normal(size=(50, 7))
        scores, *_ = scorer.score_batch(
            margins, _uniform_block(50, scorer.draws_per_item, 5)
        )
        assert (scores <= 1e-12).all()

    def test_determinism(self):
        scorer = SplitScorer(max_steps=5)
        margins = np.random.default_rng(6).normal(size=(10, 5))
        u = _uniform_block(10, scorer.draws_per_item, 6)
        a = scorer.score_batch(margins, u)
        b = scorer.score_batch(margins, u)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_large_margins_stable(self):
        scorer = SplitScorer(max_steps=3)
        margins = np.array([[1000.0, -1000.0, 500.0]])
        scores, *_ = scorer.score_batch(
            margins, _uniform_block(1, scorer.draws_per_item, 7)
        )
        assert np.isfinite(scores).all()

    def test_result_independent_of_batching(self):
        """Scoring items in one batch or in two halves must agree — the
        property that makes the flat partitioning of Algorithm 5 exact."""
        scorer = SplitScorer(max_steps=6)
        rng = np.random.default_rng(8)
        margins = rng.normal(size=(12, 6))
        u = _uniform_block(12, scorer.draws_per_item, 8)
        full = scorer.score_batch(margins, u)
        first = scorer.score_batch(margins[:5], u[:5])
        second = scorer.score_batch(margins[5:], u[5:])
        np.testing.assert_array_equal(full[0], np.concatenate([first[0], second[0]]))
        np.testing.assert_array_equal(full[1], np.concatenate([first[1], second[1]]))
        np.testing.assert_array_equal(full[3], np.concatenate([first[3], second[3]]))


class TestMemoizedBatchVsScalar:
    """Satellite contract of the lazy-margin PR: the memoized batch path
    must stay bit-identical to the scalar reference across the chain's
    early-stopping corners, and the memo must observably do its job."""

    @given(
        seed=st.integers(0, 500),
        n_obs=st.integers(2, 10),
        max_steps=st.sampled_from([1, 2, 5, 10]),
        stop_repeats=st.sampled_from([1, 2, 3, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_across_corners(self, seed, n_obs, max_steps, stop_repeats):
        rng = np.random.default_rng(seed)
        scorer = SplitScorer(max_steps=max_steps, stop_repeats=stop_repeats)
        n_items = 6
        margins = rng.normal(0, 1.5, size=(n_items, n_obs))
        uniforms = _uniform_block(n_items, scorer.draws_per_item, seed)
        scores, steps, betas, accepted = scorer.score_batch(margins, uniforms)
        for i in range(n_items):
            one = score_one(scorer, list(margins[i]), list(uniforms[i]))
            assert one.log_score == scores[i]
            assert one.steps == steps[i]
            assert one.beta_index == betas[i]
            assert one.accepted == accepted[i]

    def test_memoization_hits_counted(self):
        """A multi-step chain over a 7-point grid must revisit betas: the
        batch memo serves those lookups from cache and counts them."""
        scorer = SplitScorer(max_steps=10, stop_repeats=3)
        margins = np.random.default_rng(11).normal(size=(40, 8))
        uniforms = _uniform_block(40, scorer.draws_per_item, 11)
        scores, steps, _b, _a = scorer.score_batch(margins, uniforms)
        memo = scorer.last_memo
        # Every lookup is either a fresh evaluation or a cache hit...
        lookups = 40 + int(steps.sum())  # initial scores + one per step
        assert memo.hits + memo.evaluations == lookups
        # ...the cache is bounded by the (item, beta) table...
        assert memo.evaluations <= 40 * scorer.beta_grid.size
        # ...and chains long enough to bounce between grid points hit it.
        assert memo.hits > 0

    def test_memo_bounds_evaluations_per_item(self):
        """No (item, beta) pair is ever evaluated twice in one batch."""
        scorer = SplitScorer(max_steps=25, stop_repeats=2)
        margins = np.random.default_rng(12).normal(size=(30, 6))
        uniforms = _uniform_block(30, scorer.draws_per_item, 12)
        scorer.score_batch(margins, uniforms)
        memo = scorer.last_memo
        assert memo.evaluations <= 30 * scorer.beta_grid.size


class TestGrid:
    def test_default_grid_sorted_positive(self):
        grid = np.asarray(DEFAULT_BETA_GRID)
        assert (grid > 0).all()
        assert (np.diff(grid) > 0).all()

    def test_custom_grid(self):
        scorer = SplitScorer(beta_grid=(0.5, 1.0, 2.0), max_steps=4)
        margins = np.random.default_rng(9).normal(size=(5, 4))
        _s, _steps, betas, _a = scorer.score_batch(
            margins, _uniform_block(5, scorer.draws_per_item, 9)
        )
        assert (betas >= 0).all() and (betas < 3).all()
