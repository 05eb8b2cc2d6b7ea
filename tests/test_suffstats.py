"""Tests for sufficient-statistic containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring.suffstats import StatsArrays, SuffStats

finite_floats = st.floats(-100, 100, allow_nan=False)


class TestSuffStats:
    def test_of_computes_moments(self):
        stats = SuffStats.of(np.array([1.0, 2.0, 3.0]))
        assert stats.count == 3
        assert stats.total == 6.0
        assert stats.sumsq == 14.0

    def test_of_flattens(self):
        stats = SuffStats.of(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert stats.count == 4

    @given(st.lists(finite_floats, min_size=1, max_size=20), st.lists(finite_floats, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_add_remove_roundtrip(self, xs, ys):
        a = SuffStats.of(np.array(xs))
        b = SuffStats.of(np.array(ys))
        back = a.add(b).remove(b)
        assert back.count == pytest.approx(a.count)
        assert back.total == pytest.approx(a.total, abs=1e-9)
        assert back.sumsq == pytest.approx(a.sumsq, abs=1e-6)

    def test_add_is_concatenation(self):
        xs, ys = [1.0, 2.0], [3.0, -1.0, 0.5]
        combined = SuffStats.of(np.array(xs)).add(SuffStats.of(np.array(ys)))
        direct = SuffStats.of(np.array(xs + ys))
        assert combined.count == direct.count
        assert combined.total == pytest.approx(direct.total)
        assert combined.sumsq == pytest.approx(direct.sumsq)

    def test_is_empty(self):
        """The default block holds no values and scores zero."""
        assert SuffStats().count == 0
        assert SuffStats().log_marginal() == 0.0
        assert SuffStats.of(np.array([1.0])).count == 1

    def test_log_marginal_delegates(self):
        stats = SuffStats.of(np.array([0.1, -0.2, 0.4]))
        from repro.scoring.normal_gamma import log_marginal

        assert stats.log_marginal() == pytest.approx(
            float(log_marginal(stats.count, stats.total, stats.sumsq))
        )


class TestStatsArraysGrouped:
    def test_grouped_1d(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 1, 0, 1])
        stats = StatsArrays.grouped(values, labels, 2)
        np.testing.assert_array_equal(stats.count, [2, 2])
        np.testing.assert_array_equal(stats.total, [4.0, 6.0])
        np.testing.assert_array_equal(stats.sumsq, [10.0, 20.0])

    def test_grouped_2d_pools_rows(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        labels = np.array([0, 1])
        stats = StatsArrays.grouped(values, labels, 2)
        np.testing.assert_array_equal(stats.count, [2, 2])
        np.testing.assert_array_equal(stats.total, [4.0, 6.0])

    def test_grouped_handles_empty_groups(self):
        stats = StatsArrays.grouped(np.array([1.0]), np.array([2]), 4)
        np.testing.assert_array_equal(stats.count, [0, 0, 1, 0])

    def test_grouped_out_of_range_labels_widen(self):
        """Labels beyond ``n_groups`` keep ``np.bincount``'s widening."""
        stats = StatsArrays.grouped(np.arange(6, dtype=np.float64), np.arange(6), 3)
        assert len(stats) == 6
        np.testing.assert_array_equal(stats.total, np.arange(6.0))

    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_grouped_refuses_nan_groups(self, shape):
        values = np.ones(shape)
        values[..., 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            StatsArrays.grouped(values, np.array([0, 0, 1, 1, 1]), 2)

    def test_grouped_rejects_3d(self):
        with pytest.raises(ValueError):
            StatsArrays.grouped(np.zeros((2, 2, 2)), np.array([0, 1]), 2)

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.integers(1, 5),
        st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_grouped_matches_manual(self, values, n_groups, seed):
        rng = np.random.default_rng(seed)
        vals = np.array(values)
        labels = rng.integers(0, n_groups, size=vals.size)
        stats = StatsArrays.grouped(vals, labels, n_groups)
        for g in range(n_groups):
            sel = vals[labels == g]
            assert stats.count[g] == sel.size
            assert stats.total[g] == pytest.approx(sel.sum(), abs=1e-9)
            assert stats.sumsq[g] == pytest.approx((sel**2).sum(), abs=1e-9)


class TestStatsArraysMutation:
    def _make(self):
        return StatsArrays.grouped(
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0, 0, 1, 1, 2]), 3
        )

    def test_add_remove_at(self):
        stats = self._make()
        extra = SuffStats.of(np.array([10.0]))
        stats.add_at(1, extra)
        assert stats.count[1] == 3
        stats.remove_at(1, extra)
        assert stats.count[1] == 2
        assert stats.total[1] == pytest.approx(7.0)

    def test_drop_shifts(self):
        stats = self._make()
        stats.drop(1)
        assert len(stats) == 2
        np.testing.assert_array_equal(stats.count, [2, 1])

    def test_append(self):
        stats = self._make()
        stats.append(SuffStats.of(np.array([7.0, 7.0])))
        assert len(stats) == 4
        assert stats.count[3] == 2

    def test_pooled_equals_total(self):
        stats = self._make()
        pooled = stats.pooled()
        assert pooled.count == 5
        assert pooled.total == pytest.approx(15.0)

    def test_copy_is_independent(self):
        stats = self._make()
        clone = stats.copy()
        clone.add_at(0, SuffStats.of(np.array([9.0])))
        assert stats.count[0] == 2 and clone.count[0] == 3

    def test_score_is_sum_of_block_marginals(self):
        stats = self._make()
        assert stats.score() == pytest.approx(float(stats.log_marginals().sum()))

    def test_block_accessor(self):
        stats = self._make()
        block = stats.block(2)
        assert block.count == 1 and block.total == 5.0
