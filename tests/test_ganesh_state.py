"""Tests for the incremental co-clustering state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ganesh.state as state_module
from repro.ganesh.state import (
    CoClusterState,
    ObsClustering,
    _compact,
    init_sqrt_obs_labels,
)
from repro.parallel.costmodel import block_range
from repro.rng.streams import GibbsRandom, make_stream
from repro.scoring.normal_gamma import log_marginal
from repro.scoring.suffstats import StatsArrays
from tests.reference import compact_labels, rows_delta


def _random_state(n=12, m=8, k=3, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, m))
    var_labels = rng.integers(0, k, size=n)
    var_labels = _compact(var_labels)
    n_clusters = int(var_labels.max()) + 1
    obs_labels = [rng.integers(0, 2, size=m) for _ in range(n_clusters)]
    return CoClusterState(data, var_labels, obs_labels), data


def _brute_score(state: CoClusterState) -> float:
    """Recompute the full co-clustering score from scratch."""
    total = 0.0
    for cluster in state.clusters:
        block = state.data[cluster.members]
        for cid in range(cluster.obs.n_clusters):
            vals = block[:, cluster.obs.labels == cid]
            total += float(
                log_marginal(vals.size, vals.sum(), (vals * vals).sum())
            )
    return total


class TestCompact:
    def test_first_appearance_order(self):
        np.testing.assert_array_equal(
            _compact(np.array([5, 2, 5, 9, 2])), [0, 1, 0, 2, 1]
        )

    def test_already_compact_unchanged(self):
        labels = np.array([0, 1, 2, 1, 0])
        np.testing.assert_array_equal(_compact(labels), labels)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 5), max_size=64),  # few, repeated labels
            st.lists(st.integers(0, 10**6), max_size=32),  # sparse values
            st.integers(0, 128).map(lambda n: list(range(n))[::-1]),  # singletons
            st.tuples(st.integers(0, 10**4), st.integers(1, 64)).map(
                lambda vn: [vn[0]] * vn[1]  # one cluster
            ),
        )
    )
    def test_matches_reference(self, labels):
        got = _compact(np.asarray(labels, dtype=np.int64))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, compact_labels(labels))


class TestInitSqrtObsLabels:
    def test_sqrt_cluster_count(self):
        rng = GibbsRandom(make_stream(1))
        labels = init_sqrt_obs_labels(100, rng)
        assert labels.max() < 10

    def test_explicit_count(self):
        rng = GibbsRandom(make_stream(1))
        labels = init_sqrt_obs_labels(20, rng, n_clusters=4)
        assert labels.max() < 4


class TestObsClustering:
    def _make(self, seed=0, n=4, m=10, k=3):
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(n, m))
        labels = rng.integers(0, k, size=m)
        return ObsClustering.from_block(block, labels), block

    def test_from_block_stats_match_manual(self):
        oc, block = self._make()
        oc.check_invariants(block)

    def test_compacts_labels(self):
        block = np.zeros((2, 4))
        oc = ObsClustering.from_block(block, np.array([7, 3, 7, 3]))
        assert oc.n_clusters == 2
        np.testing.assert_array_equal(oc.labels, [0, 1, 0, 1])

    def test_move_obs_updates_stats(self):
        oc, block = self._make()
        obs = 2
        target = (oc.labels[obs] + 1) % oc.n_clusters
        oc.move_obs(obs, int(target), block[:, obs])
        oc.check_invariants(block)

    def test_move_obs_to_fresh_cluster(self):
        oc, block = self._make(seed=1)
        before = oc.n_clusters
        oc.move_obs(0, before, block[:, 0])
        assert oc.n_clusters == before + 1
        oc.check_invariants(block)

    def test_move_last_obs_empties_cluster(self):
        block = np.ones((2, 3))
        oc = ObsClustering.from_block(block, np.array([0, 1, 1]))
        oc.move_obs(0, 1, block[:, 0])  # cluster 0 now empty
        assert oc.n_clusters == 1
        oc.check_invariants(block)

    def test_move_obs_scores_match_brute_force(self):
        oc, block = self._make(seed=3)
        obs = 5
        scores = oc.move_obs_scores(obs, block[:, obs])
        assert scores.shape == (oc.n_clusters + 1,)
        src = int(oc.labels[obs])
        assert scores[src] == 0.0
        # Brute force: actually perform each move on a copy and re-score.
        base = oc.score()

        def apply_and_score(target):
            trial = oc.copy()
            trial.move_obs(obs, target, block[:, obs])
            # Recompute from scratch over the hypothetical labels.
            total = 0.0
            for cid in range(trial.n_clusters):
                vals = block[:, trial.labels == cid]
                total += float(log_marginal(vals.size, vals.sum(), (vals * vals).sum()))
            return total

        for target in range(oc.n_clusters + 1):
            if target == src:
                continue
            delta = apply_and_score(target) - base
            assert scores[target] == pytest.approx(delta, abs=1e-8)

    def test_merge_obs_scores_match_brute_force(self):
        oc, block = self._make(seed=4)
        if oc.n_clusters < 2:
            pytest.skip("degenerate draw")
        scores = oc.merge_obs_scores(0)
        base = oc.score()
        for target in range(1, oc.n_clusters):
            trial = oc.copy()
            trial.merge_obs(0, target)
            total = 0.0
            for cid in range(trial.n_clusters):
                vals = block[:, trial.labels == cid]
                total += float(log_marginal(vals.size, vals.sum(), (vals * vals).sum()))
            assert scores[target] == pytest.approx(total - base, abs=1e-8)

    def test_candidate_range_slices_full_vector(self):
        oc, block = self._make(seed=5, m=14, k=4)
        obs = 3
        full = oc.move_obs_scores(obs, block[:, obs])
        k = oc.n_clusters + 1
        parts = [
            oc.move_obs_scores(obs, block[:, obs], (lo, hi))
            for lo, hi in ((0, 2), (2, k))
        ]
        np.testing.assert_allclose(np.concatenate(parts), full, rtol=1e-13)

    def test_merge_candidate_range(self):
        oc, _block = self._make(seed=6, m=16, k=4)
        if oc.n_clusters < 3:
            pytest.skip("degenerate draw")
        full = oc.merge_obs_scores(1)
        parts = [
            oc.merge_obs_scores(1, (0, 2)),
            oc.merge_obs_scores(1, (2, oc.n_clusters)),
        ]
        np.testing.assert_allclose(np.concatenate(parts), full, rtol=1e-13)

    def test_add_remove_rows_roundtrip(self):
        oc, block = self._make(seed=7)
        extra = np.random.default_rng(8).normal(size=(2, block.shape[1]))
        oc.add_rows(extra)
        oc.remove_rows(extra)
        oc.check_invariants(block)

    def test_rows_delta_matches_add(self):
        oc, block = self._make(seed=9)
        extra = np.random.default_rng(10).normal(size=(3, block.shape[1]))
        predicted = rows_delta(oc, extra)
        before = oc.score()
        oc.add_rows(extra)
        assert oc.score() - before == pytest.approx(predicted, abs=1e-9)


class TestCoClusterState:
    def test_construction_invariants(self):
        state, _ = _random_state()
        state.check_invariants()

    @pytest.mark.parametrize("flavour", ["ties", "inf"])
    def test_stacked_marginals_equal_per_cluster_ones(self, flavour):
        """Construction scores every cluster's blocks in one stacked call;
        each cluster's ``lm`` is what its own ``log_marginals`` gives, bit
        for bit, on tie-heavy data and on data holding ``inf`` (NaN
        marginals)."""
        data = np.round(np.random.default_rng(7).normal(size=(14, 11)) * 2.0) / 2.0
        if flavour == "inf":
            data[3, 4] = np.inf
        labels = np.arange(14) % 4
        obs = [(np.arange(11) * (c + 1)) % (c + 2) for c in range(4)]
        with np.errstate(all="ignore"):
            state = CoClusterState(data, labels, obs)
            for cluster in state.clusters:
                np.testing.assert_array_equal(
                    cluster.obs.lm, cluster.obs.stats.log_marginals(state.prior)
                )
        lms = np.concatenate([cluster.obs.lm for cluster in state.clusters])
        assert np.isnan(lms).any() == (flavour == "inf")

    def test_score_matches_brute_force(self):
        state, _ = _random_state(seed=2)
        assert state.score() == pytest.approx(_brute_score(state), abs=1e-8)

    def test_move_var_scores_match_brute_force(self):
        state, data = _random_state(seed=3)
        var = 4
        scores = state.move_var_scores(var)
        src = int(state.var_labels[var])
        assert scores[src] == 0.0
        base = _brute_score(state)
        for target in range(state.n_clusters + 1):
            if target == src:
                continue
            trial, _ = _random_state(seed=3)
            trial.move_var(var, target)
            assert scores[target] == pytest.approx(
                _brute_score(trial) - base, abs=1e-8
            )

    def test_move_var_updates_state(self):
        state, _ = _random_state(seed=4)
        var = 0
        target = (state.var_labels[var] + 1) % state.n_clusters
        state.move_var(var, int(target))
        state.check_invariants()

    def test_move_var_to_fresh(self):
        state, _ = _random_state(seed=5)
        before = state.n_clusters
        state.move_var(1, before)
        assert state.n_clusters == before + 1
        assert state.clusters[-1].members == [1]
        assert state.clusters[-1].obs.n_clusters == 1
        state.check_invariants()

    def test_moving_last_member_drops_cluster(self):
        data = np.random.default_rng(0).normal(size=(3, 5))
        state = CoClusterState(
            data, np.array([0, 1, 1]), [np.zeros(5, int), np.zeros(5, int)]
        )
        state.move_var(0, 1)
        assert state.n_clusters == 1
        state.check_invariants()

    def test_merge_var_scores_match_brute_force(self):
        state, _ = _random_state(seed=6)
        if state.n_clusters < 2:
            pytest.skip("degenerate draw")
        scores = state.merge_var_scores(0)
        base = _brute_score(state)
        for target in range(1, state.n_clusters):
            trial, _ = _random_state(seed=6)
            trial.merge_var(0, target)
            assert scores[target] == pytest.approx(
                _brute_score(trial) - base, abs=1e-8
            )

    def test_merge_var_updates_state(self):
        state, _ = _random_state(seed=7)
        if state.n_clusters < 2:
            pytest.skip("degenerate draw")
        sizes_before = state.n_clusters
        state.merge_var(0, 1)
        assert state.n_clusters == sizes_before - 1
        state.check_invariants()

    def test_candidate_range_slices(self):
        state, _ = _random_state(n=16, k=5, seed=8)
        var = 3
        full = state.move_var_scores(var)
        k = state.n_clusters + 1
        parts = [
            state.move_var_scores(var, (lo, hi))
            for lo, hi in ((0, 2), (2, 4), (4, k))
        ]
        np.testing.assert_allclose(np.concatenate(parts), full, rtol=1e-13)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_random_walk_preserves_invariants(self, seed):
        """Random sequences of moves/merges never corrupt the state."""
        state, data = _random_state(seed=seed)
        rng = np.random.default_rng(seed + 1000)
        for _ in range(15):
            op = rng.integers(0, 4)
            if op == 0:
                var = int(rng.integers(0, state.n_vars))
                target = int(rng.integers(0, state.n_clusters + 1))
                state.move_var(var, target)
            elif op == 1 and state.n_clusters >= 2:
                a, b = rng.choice(state.n_clusters, 2, replace=False)
                state.merge_var(int(a), int(b))
            elif op == 2:
                cluster = state.clusters[int(rng.integers(0, state.n_clusters))]
                obs = int(rng.integers(0, state.n_obs))
                target = int(rng.integers(0, cluster.obs.n_clusters + 1))
                block = data[cluster.members]
                cluster.obs.move_obs(obs, target, block[:, obs])
            elif op == 3:
                cluster = state.clusters[int(rng.integers(0, state.n_clusters))]
                if cluster.obs.n_clusters >= 2:
                    a, b = rng.choice(cluster.obs.n_clusters, 2, replace=False)
                    cluster.obs.merge_obs(int(a), int(b))
            state.check_invariants()
        # Incremental score still matches a from-scratch recomputation.
        assert state.score() == pytest.approx(_brute_score(state), abs=1e-6)


def _scored_walk_step(state, data, rng, ranged):
    """One random Gibbs-style step: score, then apply a random candidate.

    With ``ranged`` the scoring call covers only a random slice of the
    candidates (what one SPMD rank computes), so the applied target may lie
    outside it and the move must fall back to scoring its own blocks."""

    def pick(n_candidates):
        rng_range = None
        if ranged:
            lo = int(rng.integers(0, n_candidates + 1))
            rng_range = (lo, int(rng.integers(lo, n_candidates + 1)))
        return rng_range, int(rng.integers(0, n_candidates))

    op = int(rng.integers(0, 4))
    cluster = state.clusters[int(rng.integers(0, state.n_clusters))]
    oc = cluster.obs
    if op == 0:
        var = int(rng.integers(0, state.n_vars))
        rng_range, target = pick(state.n_clusters + 1)
        state.move_var_scores(var, rng_range)
        state.move_var(var, target)
    elif op == 1 and state.n_clusters >= 2:
        cid = int(rng.integers(0, state.n_clusters))
        rng_range, target = pick(state.n_clusters)
        state.merge_var_scores(cid, rng_range)
        state.merge_var(cid, target)
    elif op == 2:
        obs = int(rng.integers(0, state.n_obs))
        column = data[cluster.members][:, obs]
        rng_range, target = pick(oc.n_clusters + 1)
        oc.move_obs_scores(obs, column, rng_range)
        oc.move_obs(obs, target, column)
    elif op == 3 and oc.n_clusters >= 2:
        cid = int(rng.integers(0, oc.n_clusters))
        rng_range, target = pick(oc.n_clusters)
        oc.merge_obs_scores(cid, rng_range)
        oc.merge_obs(cid, target)


class TestMaintainedMarginals:
    """``ObsClustering.lm`` is state, not a cache of convenience: after any
    sequence of moves it must equal a fresh scoring of the statistics bit
    for bit (``check_invariants`` asserts exactly that)."""

    @given(seed=st.integers(0, 200), ranged=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_scored_moves_keep_marginals_exact(self, seed, ranged):
        state, data = _random_state(n=14, m=9, k=4, seed=seed)
        rng = np.random.default_rng(seed + 5000)
        for _ in range(25):
            _scored_walk_step(state, data, rng, ranged)
            state.check_invariants()
            for cluster in state.clusters:
                np.testing.assert_array_equal(
                    cluster.obs.lm, cluster.obs.stats.log_marginals(state.prior)
                )

    def test_scores_do_not_change_the_state(self):
        state, data = _random_state(seed=11)
        before = [c.obs.lm.copy() for c in state.clusters]
        state.move_var_scores(3)
        state.merge_var_scores(0)
        oc = state.clusters[1].obs
        oc.move_obs_scores(2, data[state.clusters[1].members][:, 2])
        oc.merge_obs_scores(0)
        for cluster, lm in zip(state.clusters, before):
            np.testing.assert_array_equal(cluster.obs.lm, lm)
        state.check_invariants()

    def test_move_after_unrelated_scoring_ignores_it(self):
        """Scored values are keyed by the move: applying a different move
        must not adopt them."""
        state, data = _random_state(seed=12)
        state.move_var_scores(3)
        state.move_var(5, (int(state.var_labels[5]) + 1) % state.n_clusters)
        state.check_invariants()
        cluster = state.clusters[0]
        block = data[cluster.members]
        cluster.obs.move_obs_scores(1, block[:, 1])
        cluster.obs.move_obs(4, cluster.obs.n_clusters, block[:, 4])
        state.check_invariants()

    def test_obs_move_between_var_scoring_and_var_move(self):
        """An observation move invalidates the variable-level values that
        were scored for that cluster before it."""
        state, data = _random_state(seed=13)
        var = 2
        target = (int(state.var_labels[var]) + 1) % state.n_clusters
        state.move_var_scores(var)
        cluster = state.clusters[target]
        block = data[cluster.members]
        cluster.obs.move_obs(0, cluster.obs.n_clusters, block[:, 0])
        state.move_var(var, target)
        state.check_invariants()


class TestRankSlices:
    """Every ``block_range`` partition of the candidates — including the
    empty slices ranks get when p exceeds the candidate count — must
    concatenate to the unsliced score vector bit for bit."""

    @staticmethod
    def _assert_slices(score, n_candidates, k):
        full = score(None)
        assert full.shape == (n_candidates,)
        for p in (1, 2, 3, 4, k + 2):
            parts = [score(block_range(n_candidates, p, r)) for r in range(p)]
            np.testing.assert_array_equal(np.concatenate(parts), full)

    @pytest.mark.parametrize("seed", range(4))
    def test_obs_scores(self, seed):
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(5, 16))
        oc = ObsClustering.from_block(block, rng.integers(0, 5, size=16))
        k = oc.n_clusters
        for obs in (0, 7):
            self._assert_slices(
                lambda r: oc.move_obs_scores(obs, block[:, obs], r), k + 1, k
            )
        for cid in (0, k - 1):
            self._assert_slices(lambda r: oc.merge_obs_scores(cid, r), k, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_var_scores(self, seed):
        state, _ = _random_state(n=18, m=10, k=5, seed=seed)
        k = state.n_clusters
        for var in (0, 9):
            self._assert_slices(lambda r: state.move_var_scores(var, r), k + 1, k)
        for cid in (0, k - 1):
            self._assert_slices(lambda r: state.merge_var_scores(cid, r), k, k)


class TestOneScoringCallPerMove:
    """The dispatch-bound cost model: each ``*_scores`` method issues
    exactly one ``log_marginal`` call, sliced or not, and the move that
    follows it none when the scoring covered its blocks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(count, total, sumsq, prior=state_module.DEFAULT_PRIOR):
            counted.append(np.size(count))
            return log_marginal(count, total, sumsq, prior)

        monkeypatch.setattr(state_module, "log_marginal", counting)
        return counted

    @pytest.mark.parametrize("rng_range", [None, (1, 3), (2, 2)])
    def test_scores_and_covered_moves(self, calls, rng_range):
        state, data = _random_state(n=16, m=10, k=5, seed=21)
        oc = state.clusters[0].obs
        block = data[state.clusters[0].members]
        src = int(oc.labels[4])
        steps = [
            lambda: oc.move_obs_scores(4, block[:, 4], rng_range),
            lambda: oc.merge_obs_scores(0, rng_range),
            lambda: state.move_var_scores(6, rng_range),
            lambda: state.merge_var_scores(1, rng_range),
        ]
        for step in steps:
            del calls[:]
            step()
            assert len(calls) == 1
        if rng_range is None:
            del calls[:]
            oc.move_obs_scores(4, block[:, 4])
            oc.move_obs(4, (src + 1) % oc.n_clusters, block[:, 4])
            oc.merge_obs_scores(0)
            oc.merge_obs(0, 1)
            var_src = int(state.var_labels[6])
            state.move_var_scores(6)
            state.move_var(6, (var_src + 1) % state.n_clusters)
            state.merge_var_scores(1)
            state.merge_var(1, 0)
            assert len(calls) == 4
            state.check_invariants()
