"""Tests for the partitioning-scheme ablation (Section 3.2.3 / 5.3.1 / 6)
and the domain-affine steal dispatch (model and executor)."""

import time

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.data.synthetic import make_module_dataset
from repro.parallel.executor import TaskPoolExecutor
from repro.parallel.scheduler import (
    chunked_lpt_schedule,
    flat_schedule,
    grouped_schedule,
    imbalance_sweep,
    lpt_schedule,
    placement_lpt_schedule,
    placement_steal_schedule,
)
from repro.parallel.topology import (
    MachineTopology,
    available_cpus,
    plan_placement,
)
from repro.parallel.trace import WorkTrace


def _skewed_workload(seed=0, n_groups=40):
    """Node-grouped split costs with heavy-tailed group sizes, mimicking
    the real candidate-split list (few huge nodes, many small ones)."""
    rng = np.random.default_rng(seed)
    group_sizes = (rng.pareto(1.2, size=n_groups) * 20 + 5).astype(np.int64)
    costs = rng.gamma(2.0, 3.0, size=int(group_sizes.sum()))
    return costs, group_sizes


def _placement(domains, n_workers):
    """A synthetic multi-domain placement (cores need not be schedulable —
    the schedule models are analysis-only)."""
    topology = MachineTopology(
        numa_domains=tuple(
            tuple(range(i * 4, i * 4 + c)) for i, c in enumerate(domains)
        ),
        source="sysfs",
    )
    return plan_placement(topology, n_workers)


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


class TestPlacementLpt:
    def _placement(self, domains, n_workers):
        return _placement(domains, n_workers)

    def test_covers_all_work(self):
        costs, sizes = _skewed_workload(3)
        result = placement_lpt_schedule(costs, sizes, self._placement((4, 4), 8))
        assert result.per_rank.size == 8
        assert result.scheme == "placement-lpt"
        # Remote penalties inflate effective work, so total >= raw sum.
        assert result.per_rank.sum() >= costs.sum() - 1e-9

    def test_flat_placement_degenerates_to_lpt(self):
        costs, sizes = _skewed_workload(4)
        placement = self._placement((8,), 8)
        with_placement = placement_lpt_schedule(costs, sizes, placement)
        plain = lpt_schedule(costs, sizes, 8)
        np.testing.assert_allclose(
            np.sort(with_placement.per_rank), np.sort(plain.per_rank)
        )

    def test_no_penalty_matches_plain_lpt_makespan(self):
        costs, sizes = _skewed_workload(5)
        placement = self._placement((4, 4), 8)
        result = placement_lpt_schedule(costs, sizes, placement, remote_penalty=1.0)
        plain = lpt_schedule(costs, sizes, 8)
        assert result.makespan == pytest.approx(plain.makespan)

    def test_penalty_steers_groups_home(self):
        # Two domains, uniform groups: with a stiff penalty every group
        # should land in its home domain and the schedule stays balanced.
        sizes = np.full(16, 4, dtype=np.int64)
        costs = np.ones(int(sizes.sum()))
        placement = self._placement((4, 4), 4)
        result = placement_lpt_schedule(costs, sizes, placement, remote_penalty=10.0)
        assert result.makespan == pytest.approx(costs.sum() / 4)

    def test_rejects_bad_inputs(self):
        costs, sizes = _skewed_workload(6)
        placement = self._placement((4, 4), 4)
        with pytest.raises(ValueError):
            placement_lpt_schedule(costs, sizes[:-1], placement)
        with pytest.raises(ValueError):
            placement_lpt_schedule(costs, sizes, placement, remote_penalty=0.5)

class TestPlacementSteal:
    """The fake-clock model of the executor's domain-affine steal dispatch."""

    def test_covers_all_work(self):
        costs, sizes = _skewed_workload(3)
        result = placement_steal_schedule(costs, sizes, _placement((4, 4), 8))
        assert result.scheme == "placement-steal"
        assert result.per_rank.size == 8
        # Work conserving: every group runs exactly once, at raw cost when
        # local and at most remote_penalty times it when stolen.
        assert costs.sum() - 1e-9 <= result.per_rank.sum() <= 1.3 * costs.sum() + 1e-9

    def test_deterministic_clock_hand_checked(self):
        # Two domains, one worker each.  Domain 0's queue holds groups of
        # cost 10 and 6 (LPT order), domain 1's a single cost-1 group.
        # Rank 1 finishes its home group at t=1, finds its queue empty and
        # steals the cost-6 group at 1.3x: finish 1 + 7.8 = 8.8.  Rank 0
        # runs its cost-10 group: makespan 10, zero idle time.
        costs = np.array([5.0, 5.0, 3.0, 3.0] + [0.25] * 4)
        sizes = np.array([2, 2, 4], dtype=np.int64)
        placement = _placement((4, 4), 2)
        result = placement_steal_schedule(costs, sizes, placement)
        np.testing.assert_allclose(np.sort(result.per_rank), [8.8, 10.0])
        assert result.makespan == pytest.approx(10.0)
        # A stiffer penalty scales only the stolen group's execution.
        stiff = placement_steal_schedule(costs, sizes, placement, remote_penalty=2.0)
        np.testing.assert_allclose(np.sort(stiff.per_rank), [10.0, 13.0])

    def test_repeated_runs_identical(self):
        costs, sizes = _skewed_workload(9)
        placement = _placement((4, 4), 8)
        a = placement_steal_schedule(costs, sizes, placement)
        b = placement_steal_schedule(costs, sizes, placement)
        np.testing.assert_array_equal(a.per_rank, b.per_rank)

    def test_flat_placement_degenerates_to_lpt(self):
        for seed in range(10):
            costs, sizes = _skewed_workload(seed)
            with_placement = placement_steal_schedule(
                costs, sizes, _placement((8,), 8)
            )
            plain = lpt_schedule(costs, sizes, 8)
            np.testing.assert_allclose(
                np.sort(with_placement.per_rank), np.sort(plain.per_rank)
            )

    @pytest.mark.parametrize("n_workers", [4, 8])
    def test_never_worse_than_static_on_balanced_domains(self, n_workers):
        """The tentpole's scheduling claim: on balanced domains, letting
        idle workers steal never loses to the static placement-aware LPT
        assignment — the makespan is bounded by it on every draw."""
        for seed in range(20):
            costs, sizes = _skewed_workload(seed)
            placement = _placement((4, 4), n_workers)
            steal = placement_steal_schedule(costs, sizes, placement)
            static = placement_lpt_schedule(costs, sizes, placement)
            assert steal.makespan <= static.makespan + 1e-9, (
                f"seed {seed}: steal {steal.makespan} > static {static.makespan}"
            )

    def test_usually_wins_on_uneven_domains(self):
        # With unequal domains the greedy steal choice can occasionally
        # drag a huge group across domains; it still wins almost always.
        wins = 0
        for seed in range(20):
            costs, sizes = _skewed_workload(seed)
            placement = _placement((2, 4), 6)
            steal = placement_steal_schedule(costs, sizes, placement)
            static = placement_lpt_schedule(costs, sizes, placement)
            if steal.makespan <= static.makespan + 1e-9:
                wins += 1
        assert wins >= 17

    def test_rejects_bad_inputs(self):
        costs, sizes = _skewed_workload(6)
        placement = _placement((4, 4), 4)
        with pytest.raises(ValueError):
            placement_steal_schedule(costs, sizes[:-1], placement)
        with pytest.raises(ValueError):
            placement_steal_schedule(costs, sizes, placement, remote_penalty=0.5)


def _two_domain_topology():
    cpu = available_cpus()[0]
    # Two synthetic domains on schedulable CPUs, so pinning works even on
    # a single-core runner.
    return MachineTopology(
        numa_domains=((cpu,), (cpu,)), l2_bytes=2 << 20, l3_bytes=16 << 20,
        source="sysfs",
    )


def _timed_run(ctx, item):
    """submit_runs steal-test task: sleep item/100 seconds, echo the item."""
    assert ctx["data"] is not None
    time.sleep(item / 100.0)
    return item


@pytest.fixture(scope="module")
def steal_setup():
    dataset = make_module_dataset(24, 16, n_modules=3, seed=11)
    config = LearnerConfig()
    parents = np.asarray(
        config.resolve_candidate_parents(dataset.matrix.n_vars), np.int64
    )
    return dataset.matrix.values, parents


class TestExecutorSteal:
    """The real dispatch: domain-affine queues on the persistent pool."""

    def test_skewed_homes_actually_steal(self, steal_setup):
        # All items homed on domain 0: every task domain 1's worker runs
        # is by definition a steal, and the sleeps guarantee it runs some.
        data, parents = steal_setup
        config = LearnerConfig(
            parallel=ParallelConfig(n_workers=2, topology=_two_domain_topology())
        )
        items = [8, 2, 2, 2, 2, 2, 2, 2]
        trace = WorkTrace()
        with TaskPoolExecutor(data, parents, config, 5) as executor:
            assert executor.transport._steal_possible()
            results = executor.submit_runs(
                _timed_run, items, schedule="dynamic", trace=trace,
                home_domains=[0] * len(items),
            )
            stats = executor.stats
        assert results == items  # bit-identity: reassembled by item index
        assert stats.steals >= 1
        assert stats.stolen_seconds > 0.0
        # Trace counters agree exactly with the executor's stats.
        assert trace.total_steals() == stats.steals
        assert sum(trace.worker_steals.values()) == stats.steals
        assert sum(trace.worker_stolen_seconds.values()) == pytest.approx(
            stats.stolen_seconds
        )
        # Every stolen second was homed on domain 0, so node0 is the only
        # victim and the locality rate reflects the split exactly.
        assert set(trace.domain_stolen_times) == {"node0"}
        local = sum(trace.domain_local_times.values())
        stolen = sum(trace.domain_stolen_times.values())
        assert trace.locality_hit_rate() == pytest.approx(
            local / (local + stolen)
        )
        assert trace.locality_hit_rate() < 1.0

    def test_default_homes_spread_over_domains(self, steal_setup):
        data, parents = steal_setup
        config = LearnerConfig(
            parallel=ParallelConfig(n_workers=2, topology=_two_domain_topology())
        )
        trace = WorkTrace()
        with TaskPoolExecutor(data, parents, config, 5) as executor:
            results = executor.submit_runs(
                _timed_run, [1] * 6, schedule="dynamic", trace=trace
            )
        assert results == [1] * 6
        # Both domains received home work (the balanced default spread).
        homed = set(trace.domain_local_times) | set(trace.domain_stolen_times)
        assert homed == {"node0", "node1"}

    def test_flat_topology_never_steals(self, steal_setup):
        # Flat machines must take the exact pre-change shared-queue path:
        # no steal scaffolding, zero steal counters, full locality.
        data, parents = steal_setup
        config = LearnerConfig(
            parallel=ParallelConfig(n_workers=2, topology="flat")
        )
        trace = WorkTrace()
        with TaskPoolExecutor(data, parents, config, 5) as executor:
            assert not executor.transport._steal_possible()
            results = executor.submit_runs(
                _timed_run, [1] * 6, schedule="dynamic", trace=trace
            )
            assert executor.transport._steal_shared is None
            stats = executor.stats
        assert results == [1] * 6
        assert stats.steals == 0 and stats.stolen_seconds == 0.0
        assert trace.total_steals() == 0
        assert trace.worker_steals == {} and trace.worker_stolen_seconds == {}
        assert trace.domain_local_times == {} and trace.domain_stolen_times == {}
        assert trace.locality_hit_rate() == 1.0

    def test_steal_knob_off_keeps_shared_queue(self, steal_setup):
        data, parents = steal_setup
        config = LearnerConfig(
            parallel=ParallelConfig(
                n_workers=2, topology=_two_domain_topology(), steal=False
            )
        )
        with TaskPoolExecutor(data, parents, config, 5) as executor:
            assert not executor.transport._steal_possible()
            results = executor.submit_runs(_timed_run, [1, 2], schedule="dynamic")
            assert executor.transport._steal_shared is None
            assert executor.stats.steals == 0
        assert results == [1, 2]

    def test_static_schedule_ignores_steal_queues(self, steal_setup):
        # Stealing is a dynamic-dispatch feature; static dispatch on the
        # same executor must not consume the steal scaffolding.
        data, parents = steal_setup
        config = LearnerConfig(
            parallel=ParallelConfig(n_workers=2, topology=_two_domain_topology())
        )
        with TaskPoolExecutor(data, parents, config, 5) as executor:
            results = executor.submit_runs(_timed_run, [1, 2, 3], schedule="static")
            assert executor.stats.steals == 0
        assert results == [1, 2, 3]
