"""Tests for the partitioning-scheme ablation (Section 3.2.3 / 5.3.1 / 6)."""

import numpy as np
import pytest

from repro.parallel.scheduler import (
    chunked_lpt_schedule,
    flat_schedule,
    grouped_schedule,
    imbalance_sweep,
    lpt_schedule,
)


def _skewed_workload(seed=0, n_groups=40):
    """Node-grouped split costs with heavy-tailed group sizes, mimicking
    the real candidate-split list (few huge nodes, many small ones)."""
    rng = np.random.default_rng(seed)
    group_sizes = (rng.pareto(1.2, size=n_groups) * 20 + 5).astype(np.int64)
    costs = rng.gamma(2.0, 3.0, size=int(group_sizes.sum()))
    return costs, group_sizes


class TestFlatSchedule:
    def test_covers_all_work(self):
        costs, _ = _skewed_workload()
        result = flat_schedule(costs, 8)
        assert result.per_rank.sum() == pytest.approx(costs.sum())
        assert result.p == 8 and result.scheme == "flat"

    def test_uniform_costs_perfectly_balanced(self):
        result = flat_schedule(np.ones(64), 8)
        assert result.imbalance == pytest.approx(0.0)

    def test_makespan_at_least_mean(self):
        costs, _ = _skewed_workload(1)
        result = flat_schedule(costs, 16)
        assert result.makespan >= result.mean


class TestGroupedSchedule:
    def test_covers_all_work(self):
        costs, sizes = _skewed_workload(2)
        result = grouped_schedule(costs, sizes, 8)
        assert result.per_rank.sum() == pytest.approx(costs.sum())

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            grouped_schedule(np.ones(10), np.array([3, 3]), 2)

    def test_flat_beats_grouped_on_skewed_work(self):
        """The paper's argument for flat partitioning: coarse per-node
        assignment suffers visibly worse imbalance."""
        wins = 0
        for seed in range(5):
            costs, sizes = _skewed_workload(seed)
            p = 16
            if flat_schedule(costs, p).makespan <= grouped_schedule(costs, sizes, p).makespan:
                wins += 1
        assert wins >= 4


class TestLptSchedule:
    def test_covers_all_work(self):
        costs, sizes = _skewed_workload(3)
        result = lpt_schedule(costs, sizes, 8)
        assert result.per_rank.sum() == pytest.approx(costs.sum())

    def test_lpt_beats_round_robin(self):
        """Dynamic balancing (future work, Section 6) improves on the
        coarse static assignment."""
        costs, sizes = _skewed_workload(4)
        p = 16
        assert (
            lpt_schedule(costs, sizes, p).makespan
            <= grouped_schedule(costs, sizes, p).makespan + 1e-9
        )

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            lpt_schedule(np.ones(5), np.array([2, 2]), 2)

    def test_lpt_within_4_3_of_lower_bound(self):
        """Graham's bound: LPT makespan <= (4/3 - 1/3p) * OPT, and OPT >=
        max(mean load, largest group)."""
        costs, sizes = _skewed_workload(5)
        p = 8
        result = lpt_schedule(costs, sizes, p)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        group_costs = [costs[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]
        lower = max(costs.sum() / p, max(group_costs))
        assert result.makespan <= (4 / 3) * lower + 1e-9


class TestChunkedLpt:
    def test_covers_all_work(self):
        costs, _ = _skewed_workload(7)
        result = chunked_lpt_schedule(costs, 8)
        assert result.per_rank.sum() == pytest.approx(costs.sum())
        assert result.scheme == "chunked-lpt"

    def test_beats_flat_on_skewed_work(self):
        """The future-work dynamic schedule improves on static flat blocks
        once per-item costs are heavy-tailed."""
        rng = np.random.default_rng(8)
        costs = rng.pareto(1.2, size=5000) + 1
        p = 64
        assert (
            chunked_lpt_schedule(costs, p).makespan
            <= flat_schedule(costs, p).makespan + 1e-9
        )

    def test_not_limited_by_one_huge_group(self):
        """Unlike node-level LPT, a single expensive contiguous region can
        be subdivided."""
        costs = np.concatenate([np.full(1000, 10.0), np.full(1000, 0.1)])
        group_sizes = np.array([1000, 1000])
        p = 10
        node_level = lpt_schedule(costs, group_sizes, p)
        chunked = chunked_lpt_schedule(costs, p)
        assert chunked.makespan < node_level.makespan


class TestImbalanceSweep:
    def test_monotone_growth_on_heavy_tails(self):
        rng = np.random.default_rng(6)
        costs = rng.pareto(1.3, size=50000) + 1
        sweep = imbalance_sweep(costs, [8, 128, 2048])
        assert sweep[8] < sweep[128] < sweep[2048]

    def test_keys_are_processor_counts(self):
        sweep = imbalance_sweep(np.ones(100), [2, 4])
        assert set(sweep) == {2, 4}
