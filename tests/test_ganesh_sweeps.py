"""Tests for the GaneSH sweep drivers."""

import numpy as np
import pytest

from repro.ganesh.coclustering import (
    SweepHooks,
    merge_obs_sweep,
    merge_var_sweep,
    reassign_obs_sweep,
    reassign_var_sweep,
    run_ganesh,
    run_obs_only_ganesh,
)
from repro.ganesh.state import CoClusterState, ObsClustering, _compact
from repro.rng.streams import GibbsRandom, make_stream


def _rng(seed=1):
    return GibbsRandom(make_stream(seed, "sweeps"))


def _state(seed=0, n=15, m=10, k=4):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, m))
    labels = _compact(rng.integers(0, k, size=n))
    obs = [rng.integers(0, 2, size=m) for _ in range(int(labels.max()) + 1)]
    return CoClusterState(data, labels, obs), data


class TestSweeps:
    def test_reassign_var_preserves_invariants(self):
        state, _ = _state()
        reassign_var_sweep(state, _rng())
        state.check_invariants()

    def test_merge_var_preserves_invariants(self):
        state, _ = _state(seed=1)
        merge_var_sweep(state, _rng(2))
        state.check_invariants()

    def test_obs_sweeps_preserve_invariants(self):
        state, data = _state(seed=2)
        cluster = state.clusters[0]
        block = data[cluster.members]
        reassign_obs_sweep(cluster.obs, block, _rng(3))
        merge_obs_sweep(cluster.obs, _rng(4))
        cluster.obs.check_invariants(block)

    def test_sweep_determinism(self):
        outcomes = []
        for _ in range(2):
            state, _ = _state(seed=3)
            reassign_var_sweep(state, _rng(5))
            outcomes.append(state.var_labels.copy())
        np.testing.assert_array_equal(outcomes[0], outcomes[1])

    def test_hooks_record_every_iteration(self):
        state, _ = _state(seed=4)
        records = []
        hooks = SweepHooks(record=lambda phase, costs, nc: records.append((phase, len(costs))))
        reassign_var_sweep(state, _rng(6), hooks)
        assert len(records) == state.n_vars
        assert all(phase == "ganesh.var_reassign" for phase, _ in records)

    def test_recorder_does_not_perturb_the_chain(self):
        """Cost vectors are built only for a recorder; attaching one must
        leave state, labels and stream position exactly as without."""
        outcomes = []
        for record in (None, lambda phase, costs, nc: None):
            state, data = _state(seed=5)
            rng = _rng(7)
            hooks = SweepHooks(record=record)
            reassign_var_sweep(state, rng, hooks)
            merge_var_sweep(state, rng, hooks)
            for cluster in list(state.clusters):
                block = data[cluster.members]
                reassign_obs_sweep(cluster.obs, block, rng, hooks)
                merge_obs_sweep(cluster.obs, rng, hooks)
            state.check_invariants()
            outcomes.append(
                (
                    rng.offset,
                    state.var_labels.tolist(),
                    [c.obs.labels.tolist() for c in state.clusters],
                    [c.obs.lm.tolist() for c in state.clusters],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_recorded_cost_vectors(self):
        """One vector per Gibbs iteration, one entry per candidate, in the
        analytic units the trace projection uses."""
        state, data = _state(seed=6)
        n, m = data.shape
        records = []
        hooks = SweepHooks(record=lambda phase, costs, nc: records.append((phase, costs)))
        sizes = [c.obs.n_clusters for c in state.clusters]
        reassign_var_sweep(state, _rng(8), hooks)
        phase, first = records[0]
        assert phase == "ganesh.var_reassign"
        np.testing.assert_array_equal(first, [m + k for k in sizes] + [m])
        del records[:]
        merge_var_sweep(state, _rng(9), hooks)
        assert all(p == "ganesh.var_merge" for p, _ in records)
        cluster = state.clusters[0]
        block = data[cluster.members]
        del records[:]
        k = cluster.obs.n_clusters
        reassign_obs_sweep(cluster.obs, block, _rng(10), hooks)
        assert len(records) == m
        np.testing.assert_array_equal(
            records[0][1], np.full(k + 1, float(len(cluster.members) + 1))
        )
        del records[:]
        k = cluster.obs.n_clusters
        merge_obs_sweep(cluster.obs, _rng(11), hooks)
        np.testing.assert_array_equal(records[0][1], np.ones(k))


class TestRunGanesh:
    def test_output_shape(self, tiny_matrix):
        result = run_ganesh(tiny_matrix.values, _rng(7))
        assert result.var_labels.shape == (tiny_matrix.n_vars,)
        assert result.n_iterations == 1
        result.state.check_invariants()

    def test_deterministic(self, tiny_matrix):
        a = run_ganesh(tiny_matrix.values, _rng(8)).var_labels
        b = run_ganesh(tiny_matrix.values, _rng(8)).var_labels
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_result(self, tiny_matrix):
        a = run_ganesh(tiny_matrix.values, _rng(9)).var_labels
        b = run_ganesh(tiny_matrix.values, _rng(10)).var_labels
        assert not np.array_equal(a, b)

    def test_respects_init_cluster_count(self, tiny_matrix):
        result = run_ganesh(tiny_matrix.values, _rng(11), init_var_clusters=2)
        # After one update step cluster count may change but must be valid.
        assert 1 <= result.state.n_clusters <= tiny_matrix.n_vars

    def test_multiple_update_steps(self, tiny_matrix):
        result = run_ganesh(tiny_matrix.values, _rng(12), n_update_steps=2)
        assert result.n_iterations == 2
        result.state.check_invariants()

    def test_update_improves_score_on_average(self):
        """Gibbs moves are score-weighted, so across seeds the final score
        should beat the random initialization clearly more often than not."""
        wins = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(20, 12))
            data[:10] += 3.0  # two obvious groups
            init_rng = _rng(seed + 100)
            labels = _compact(init_rng.random_labels(20, 10))
            obs = [
                init_rng.random_labels(12, 3)
                for _ in range(int(labels.max()) + 1)
            ]
            state = CoClusterState(data, labels, obs)
            before = state.score()
            reassign_var_sweep(state, init_rng)
            merge_var_sweep(state, init_rng)
            if state.score() > before:
                wins += 1
        assert wins >= 4


class TestObsOnlyGanesh:
    def test_single_sample_default(self, tiny_matrix):
        block = tiny_matrix.values[:5]
        samples = run_obs_only_ganesh(block, _rng(13))
        assert len(samples) == 1
        assert samples[0].shape == (tiny_matrix.n_obs,)

    def test_burn_in_discards_early_samples(self, tiny_matrix):
        block = tiny_matrix.values[:5]
        samples = run_obs_only_ganesh(block, _rng(14), n_update_steps=4, burn_in=2)
        assert len(samples) == 2

    def test_full_burn_in_still_yields_one_sample(self, tiny_matrix):
        block = tiny_matrix.values[:5]
        samples = run_obs_only_ganesh(block, _rng(15), n_update_steps=3, burn_in=3)
        assert len(samples) == 1

    def test_labels_are_compact(self, tiny_matrix):
        block = tiny_matrix.values[:6]
        (labels,) = run_obs_only_ganesh(block, _rng(16))
        n_clusters = labels.max() + 1
        assert set(labels.tolist()) == set(range(n_clusters))

    def test_single_row_block(self, tiny_matrix):
        (labels,) = run_obs_only_ganesh(tiny_matrix.values[3], _rng(17))
        assert labels.shape == (tiny_matrix.n_obs,)
