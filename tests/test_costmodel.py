"""Tests for the machine model and block-partition accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.costmodel import (
    MachineModel,
    block_bounds,
    block_range,
    block_sums,
    load_imbalance,
    max_block_sum,
)


class TestMachineModel:
    def test_defaults_positive(self):
        model = MachineModel()
        assert model.tau > 0 and model.mu > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MachineModel(tau=-1.0)

    def test_serial_comm_is_free(self):
        assert MachineModel().collective_time(100, p=1) == 0.0

    def test_log_scaling(self):
        model = MachineModel(tau=1.0, mu=0.0)
        assert model.collective_time(1, p=4) == pytest.approx(2.0)
        assert model.collective_time(1, p=16) == pytest.approx(4.0)

    def test_word_scaling(self):
        model = MachineModel(tau=0.0, mu=1.0)
        assert model.collective_time(10, p=2) == pytest.approx(10.0)

    def test_count_multiplies(self):
        model = MachineModel(tau=1.0, mu=0.0)
        assert model.collective_time(1, p=2, count=5) == pytest.approx(5.0)
        assert model.collective_time(1, p=2, count=0) == 0.0

    def test_point_to_point(self):
        """A two-rank collective is one point-to-point transfer, tau + mu*words."""
        model = MachineModel(tau=2.0, mu=0.5)
        assert model.collective_time(4, p=2) == pytest.approx(4.0)


class TestBlockBounds:
    @given(n=st.integers(0, 200), p=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, n, p):
        bounds = block_bounds(n, p)
        assert len(bounds) == p
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        sizes = [hi - lo for lo, hi in bounds]
        assert all(s >= 0 for s in sizes)
        assert max(sizes) - min(sizes) <= 1  # equal-count to within one
        for (lo1, hi1), (lo2, _hi2) in zip(bounds, bounds[1:]):
            assert hi1 == lo2

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            block_bounds(10, 0)

    @given(n=st.integers(0, 100), p=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_block_range_matches_bounds(self, n, p):
        bounds = block_bounds(n, p)
        for rank in range(p):
            assert block_range(n, p, rank) == bounds[rank]


class TestBlockSums:
    @given(
        st.lists(st.floats(0, 100), min_size=0, max_size=60),
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_cover_total(self, costs, p):
        costs = np.array(costs)
        sums = block_sums(costs, p)
        assert sums.shape == (p,)
        assert sums.sum() == pytest.approx(costs.sum(), abs=1e-9)

    def test_matches_manual_partition(self):
        costs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(block_sums(costs, 2), [6.0, 9.0])
        np.testing.assert_allclose(block_sums(costs, 5), costs)

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=60),
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_max_block_sum_consistency(self, costs, p):
        costs = np.array(costs)
        assert max_block_sum(costs, p) == pytest.approx(
            float(block_sums(costs, p).max()), abs=1e-9
        )

    def test_max_with_p_exceeding_items(self):
        costs = np.array([3.0, 7.0])
        assert max_block_sum(costs, 10) == 7.0

    def test_empty(self):
        assert max_block_sum(np.zeros(0), 4) == 0.0


class TestLoadImbalance:
    def test_uniform_costs_balance(self):
        assert load_imbalance(np.ones(100), 4) == pytest.approx(0.0)

    def test_imbalance_grows_with_p_for_skewed_costs(self):
        """The Section 5.3.1 phenomenon: with heavy-tailed per-item costs
        the (max - mean)/mean metric increases with processor count."""
        rng = np.random.default_rng(0)
        costs = rng.pareto(1.5, size=20000) + 1
        imb = [load_imbalance(costs, p) for p in (4, 64, 1024)]
        assert imb[0] < imb[1] < imb[2]

    def test_zero_work(self):
        assert load_imbalance(np.zeros(10), 4) == 0.0

    def test_definition(self):
        costs = np.array([1.0, 1.0, 4.0, 0.0])
        sums = block_sums(costs, 2)  # [2, 4]
        expected = (sums.max() - sums.mean()) / sums.mean()
        assert load_imbalance(costs, 2) == pytest.approx(expected)
