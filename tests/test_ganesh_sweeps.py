"""Tests for the GaneSH sweep drivers."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.ganesh import coclustering
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
from repro.parallel.trace import WorkTrace
from repro.rng.philox import PhiloxStream
from repro.rng.streams import GibbsRandom, make_stream
from repro.scoring import kernel as kernel_mod
from repro.scoring import normal_gamma
from repro.scoring.kernel import resolve_kernel_backend
from repro.scoring.normal_gamma import NormalGammaPrior, gammaln_table
from repro.validation.metrics import network_fingerprint


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


# -- the sweeps as one native call each ---------------------------------------
#
# Handed the native kernels (``native=``, which ``run_ganesh`` resolves from
# its ``kernel_backend``) a whole reassign or merge sweep — observation or
# variable — is one certified C call (ALGORITHMS.md §13); the NumPy loops
# (``native=None``) stay as the "numpy" backend's path and as the oracle.
# Everything below except the last class needs the extension.

NATIVE = _native.load() is not None
needs_native = pytest.mark.skipif(
    not NATIVE,
    reason=f"native backend unavailable ({_native.availability()['status']})",
)


def _native_of(backend):
    """The sweeps' handle for a backend name (``None``: the NumPy loops)."""
    return resolve_kernel_backend(backend)[1]


def _block(seed, rows, m, scale=1.0, ties=False):
    block = np.random.default_rng(seed).normal(size=(rows, m)) * scale
    return np.round(block / scale) * scale if ties else block


def _program_rng(seed, rng_backend):
    """The replicated stream of a sweep program, on either generator: the
    native entries compute its span's draws as they read them."""
    return GibbsRandom(make_stream(seed, "program", backend=rng_backend))


RNG_FLAVOURS = ["philox", "mrg"]


def _obs_lgam(block):
    """The ``gammaln`` table an observation sweep over ``block`` reads."""
    rows, m = block.shape
    return gammaln_table(m, rows=rows)


def _snapshot(oc, rng, records=()):
    return (
        oc.n_clusters,
        oc.labels.tolist(),
        oc.stats.count.tolist(),
        oc.stats.total.tolist(),
        oc.stats.sumsq.tolist(),
        oc.lm.tolist(),
        rng.offset,
        [(phase, costs.tolist(), nc) for phase, costs, nc in records],
    )


def _run_program(backend, block, labels, program, rng_backend, traced, seed):
    """``program`` is a string of sweeps: r(eassign) / m(erge)."""
    native = _native_of(backend)
    oc = ObsClustering.from_block(block, labels)
    rng = _program_rng(seed, rng_backend)
    records = []
    hooks = SweepHooks(
        record=(lambda *record: records.append(record)) if traced else None
    )
    lgam = _obs_lgam(block) if native else None
    for sweep in program:
        if sweep == "r":
            reassign_obs_sweep(oc, block, rng, hooks, native=native, lgam=lgam)
        else:
            merge_obs_sweep(oc, rng, hooks, native=native, lgam=lgam)
        oc.check_invariants(block)
    return _snapshot(oc, rng, records)


@needs_native
class TestNativeObsSweeps:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.sampled_from([1, 2, 7, 8, 9, 16, 129, 200]),
        m=st.sampled_from([1, 2, 3, 8, 17, 64, 130]),
        k_frac=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-3, 1.0, 50.0]),
        ties=st.booleans(),
        program=st.text(alphabet="rm", min_size=1, max_size=4),
        rng_backend=st.sampled_from(RNG_FLAVOURS),
        traced=st.booleans(),
    )
    def test_random_sweep_programs(
        self, seed, rows, m, k_frac, scale, ties, program, rng_backend, traced
    ):
        """Native and NumPy sweeps leave the same clustering, statistics,
        marginals, stream position and recorded cost vectors — from one
        cluster through all singletons, in every pairwise-sum regime, with
        the draws of either generator computed in the call."""
        block = _block(seed, rows, m, scale, ties)
        k = 1 + int(k_frac * (m - 1))
        labels = np.random.default_rng(seed + 1).integers(0, k, size=m)
        if k == m:
            labels = np.arange(m)  # all singletons: a fresh move holds m + 1
        args = (block, labels, program, rng_backend, traced, seed)
        assert _run_program("native", *args) == _run_program("numpy", *args)

    @pytest.mark.parametrize("value", [np.inf, 1e200])
    def test_non_finite_scores(self, value):
        """A block holding inf (or a value whose square overflows) reaches
        the sweeps with NaN marginals; the masked and the all-impossible
        branches of the weighted choice are replayed, not refused."""
        block = _block(3, 6, 12)
        block[0, 0] = value
        labels = np.arange(12) % 4
        outcomes = []
        for backend in ("numpy", "native"):
            native = _native_of(backend)
            with np.errstate(all="ignore"):
                oc = ObsClustering.from_block(block, labels)
                rng = _rng(21)
                lgam = _obs_lgam(block) if native else None
                for _ in range(2):
                    reassign_obs_sweep(oc, block, rng, native=native, lgam=lgam)
                    merge_obs_sweep(oc, rng, native=native, lgam=lgam)
                outcomes.append((oc, rng.offset))
        (want, want_offset), (got, got_offset) = outcomes
        assert got_offset == want_offset
        np.testing.assert_array_equal(got.labels, want.labels)
        assert np.isnan(want.lm).any() or np.isinf(want.lm).any()
        for name in ("count", "total", "sumsq"):
            np.testing.assert_array_equal(
                getattr(got.stats, name), getattr(want.stats, name)
            )
        np.testing.assert_array_equal(got.lm, want.lm)

    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    def test_runs_end_to_end(self, small_matrix, rng_backend):
        outcomes = []
        for backend in ("numpy", "native"):
            rng = GibbsRandom(make_stream(5, "e2e", backend=rng_backend))
            result = run_ganesh(
                small_matrix.values, rng, n_update_steps=2, kernel_backend=backend
            )
            result.state.check_invariants()
            samples = run_obs_only_ganesh(
                small_matrix.values[:9], rng, n_update_steps=3, burn_in=1,
                kernel_backend=backend,
            )
            outcomes.append(
                (
                    result.var_labels.tolist(),
                    [c.obs.labels.tolist() for c in result.state.clusters],
                    [s.tolist() for s in samples],
                    rng.offset,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_non_contiguous_block_is_copied_not_refused(self):
        block = _block(8, 5, 11)
        labels = np.arange(11) % 3
        outcomes = []
        for view in (block, np.asfortranarray(block), block[:, ::-1][:, ::-1]):
            oc = ObsClustering.from_block(block, labels)
            rng = _rng(9)
            reassign_obs_sweep(oc, view, rng, native=_native.load(), lgam=_obs_lgam(block))
            outcomes.append(_snapshot(oc, rng))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_concurrent_sweeps_share_nothing(self):
        """Two threads may be inside a sweep at once with the GIL released:
        the C scratch is per call."""
        blocks = [_block(seed, 7, 40) for seed in range(4)]

        def run(index):
            return [
                s.tolist()
                for s in run_obs_only_ganesh(
                    blocks[index], _rng(index), n_update_steps=6, kernel_backend="native"
                )
            ]

        serial = [run(i) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


@needs_native
class TestSweepEntryValidation:
    """``NativeKernels.obs_sweep`` checks everything the C loop indexes by
    before C touches memory; a refusal leaves the state as it was."""

    M, K, ROWS = 6, 3, 4

    def _args(self, **overrides):
        m, k, rows = self.M, self.K, self.ROWS
        block = _block(1, rows, m)
        oc = ObsClustering.from_block(block, np.arange(m) % k)
        lm = np.zeros(m + 1)
        lm[:k] = oc.lm
        args = dict(
            block=block, rows=rows, labels=oc.labels, stats=oc.stats.reserve(m + 1),
            lm=lm, k=k, span=_rng(1).span(2 * m),
            lgam=np.zeros(m + 1), prior=oc.prior, quantum=1e-9,
        )
        args.update(overrides)
        return args

    @staticmethod
    def _state(args):
        return [a.copy() for a in (args["labels"], *args["stats"], args["lm"])]

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(labels=np.array([0, 1, 2, 3, 0, 1])), "labels must lie"),
            (dict(labels=np.array([0, 1, 2, -1, 0, 1])), "labels must lie"),
            (dict(labels=np.arange(6, dtype=np.int32) % 3), "labels must be"),
            (dict(k=7), "cluster count"),
            (dict(k=0), "cluster count"),
            (dict(lm=np.zeros(6)), "lm must be"),
            (dict(stats=(np.zeros(6),) * 3), "count must be"),
            (dict(span=_rng(1).span(11)), "span must cover at least 12 draws"),
            (dict(lgam=np.zeros(6)), "gammaln table must be"),
            (dict(block=np.zeros((4, 5))), "block must have shape"),
            (dict(block=None, rows=0), "at least one block row"),
            (dict(span=_rng(1).uniforms(12)), "span must be a DrawSpan"),
            (dict(span=PhiloxStream(1).span((1 << 64) - 12, 12)), r"draws in \[0, 2\*\*64\)"),
            (dict(rows=5, block=np.zeros((5, 6))), "do not describe the labels"),
        ],
    )
    def test_refusals_leave_the_state_untouched(self, overrides, match):
        args = self._args(**overrides)
        before = self._state(args)
        with pytest.raises(ValueError, match=match):
            _native.load().obs_sweep(**args)
        for was, now in zip(before, self._state(args)):
            np.testing.assert_array_equal(was, now)

    def test_empty_cluster_is_refused(self):
        """With an empty cluster among the k, all-singletons plus a fresh
        move would need more than m + 1 slots."""
        args = self._args(labels=np.array([0, 0, 0, 2, 2, 2]))
        with pytest.raises(ValueError, match="do not describe the labels"):
            _native.load().obs_sweep(**args)

    def test_valid_arguments_run(self):
        args = self._args()
        args["lgam"] = gammaln(
            args["prior"].alpha0 + self.ROWS * np.arange(self.M + 1.0) / 2.0
        )
        k, ks = _native.load().obs_sweep(**args, trace=True)
        assert 1 <= k <= self.M and ks.shape == (self.M,)
        k, ks = _native.load().obs_sweep(
            **{**args, "block": None, "k": k, "span": _rng(2).span(k)}
        )
        assert ks is None


def _co_state(seed, n, m, k, k_obs, scale=1.0, ties=False):
    """A co-clustering of ``n x m`` data into ``k`` variable clusters (``k ==
    n``: all singletons) whose observations start in ``k_obs`` clusters."""
    gen = np.random.default_rng(seed)
    data = gen.normal(size=(n, m)) * scale
    if ties:
        data = np.round(data / scale) * scale
    var_labels = np.arange(n) if k == n else gen.integers(0, k, size=n)
    n_clusters = len(set(var_labels.tolist()))
    obs_labels = [
        np.arange(m) if k_obs == m else gen.integers(0, k_obs, size=m)
        for _ in range(n_clusters)
    ]
    return CoClusterState(data, var_labels, obs_labels)


def _co_snapshot(state, rng, records=()):
    return (
        state.var_labels.tolist(),
        [cluster.members for cluster in state.clusters],
        [cluster.obs.labels.tolist() for cluster in state.clusters],
        [
            getattr(cluster.obs.stats, name).tolist()
            for cluster in state.clusters
            for name in ("count", "total", "sumsq")
        ],
        [cluster.obs.lm.tolist() for cluster in state.clusters],
        rng.offset,
        [(phase, costs.tolist(), nc) for phase, costs, nc in records],
    )


def _run_co_program(backend, start, program, rng_backend, traced, seed, check=True):
    """``program`` is a string of sweeps over the whole state: R(eassign) /
    M(erge) variables, o(bservation sweeps of every cluster).  ``check``
    verifies the state's invariants after every sweep."""
    native = _native_of(backend)
    state = start.copy()
    rng = _program_rng(seed, rng_backend)
    records = []
    hooks = SweepHooks(
        record=(lambda *record: records.append(record)) if traced else None
    )
    for sweep in program:
        if sweep == "R":
            reassign_var_sweep(state, rng, hooks, native)
        elif sweep == "M":
            merge_var_sweep(state, rng, hooks, native)
        else:
            for cluster in list(state.clusters):
                block = state.data[cluster.members]
                lgam = state.obs_lgam(len(cluster.members)) if native else None
                reassign_obs_sweep(cluster.obs, block, rng, hooks, native=native, lgam=lgam)
                merge_obs_sweep(cluster.obs, rng, hooks, native=native, lgam=lgam)
        if check:
            state.check_invariants()
    return _co_snapshot(state, rng, records)


@needs_native
class TestNativeVarSweeps:
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([1, 2, 3, 5, 8, 9, 17, 40]),
        m=st.sampled_from([1, 2, 3, 8, 9, 17, 33, 130]),
        k_frac=st.floats(0.0, 1.0),
        k_obs_frac=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-3, 1.0, 50.0]),
        ties=st.booleans(),
        program=st.text(alphabet="RMo", min_size=1, max_size=4),
        rng_backend=st.sampled_from(RNG_FLAVOURS),
        traced=st.booleans(),
    )
    def test_random_sweep_programs(
        self, seed, n, m, k_frac, k_obs_frac, scale, ties, program, rng_backend, traced
    ):
        """Native and NumPy variable sweeps, interleaved with observation
        sweeps, leave the same labels, members (in order), statistics,
        marginals, stream position and recorded cost vectors — from one
        cluster through all singletons (a fresh move then holds ``n + 1``),
        with moves that open clusters and that drop their source, and with
        the draws of either generator computed in the call."""
        k = 1 + round(k_frac * (n - 1))
        k_obs = 1 + round(k_obs_frac * (m - 1))
        start = _co_state(seed, n, m, k, k_obs, scale, ties)
        args = (start, program, rng_backend, traced, seed)
        assert _run_co_program("native", *args) == _run_co_program("numpy", *args)

    def test_sweeps_open_and_drop_clusters(self, monkeypatch):
        """The programs above are not vacuous.  Two well-separated groups,
        one split over a shared cluster and singletons: a reassign sweep
        opens a cluster for the other group, drops emptied singletons, and
        leaves a cluster whose members are not in index order."""
        gen = np.random.default_rng(11)
        data = gen.normal(scale=0.05, size=(16, 9))
        data[8:] += 40.0
        var_labels = np.array([0] * 4 + [1, 2, 3, 4] + [0] * 8)
        obs_labels = [np.zeros(9, dtype=np.int64)] * 5
        start = CoClusterState(data, var_labels, obs_labels)
        moves = []
        original = _native.NativeKernels.var_sweep

        def spying(self, **pack):
            out = original(self, **{**pack, "trace": True})
            moves.extend(out[2].tolist())
            return out

        monkeypatch.setattr(_native.NativeKernels, "var_sweep", spying)
        outcomes = []
        for backend in ("native", "numpy"):
            state = start.copy()
            rng = _rng(3)
            reassign_var_sweep(state, rng, native=_native_of(backend))
            reassign_var_sweep(state, rng, native=_native_of(backend))
            state.check_invariants()
            outcomes.append(_co_snapshot(state, rng))
        assert outcomes[0] == outcomes[1]
        assert any(opened for opened, _ in moves)
        assert any(dropped >= 0 for _, dropped in moves)
        assert any(members != sorted(members) for members in outcomes[0][1])

    @pytest.mark.parametrize("value", [np.inf, 1e200])
    def test_non_finite_scores(self, value):
        """A row holding inf (or a value whose square overflows) gives NaN
        marginals; the masked branch of the weighted choice is replayed,
        not refused."""
        data = np.random.default_rng(5).normal(size=(9, 12))
        data[0, 0] = value
        with np.errstate(all="ignore"):
            start = CoClusterState(data, np.arange(9) % 3, [np.arange(12) % 3] * 3)
            # (the invariant check compares marginals with ==: not for NaN)
            want, got = (
                _run_co_program(backend, start, "RMoRM", "philox", True, 21, check=False)
                for backend in ("numpy", "native")
            )
        assert not np.isfinite([x for lm in want[4] for x in lm]).all()
        np.testing.assert_equal(got, want)  # NaN == NaN

    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    def test_runs_end_to_end(self, small_matrix, rng_backend):
        outcomes = []
        for backend in ("numpy", "native"):
            rng = GibbsRandom(make_stream(6, "e2e", backend=rng_backend))
            result = run_ganesh(
                small_matrix.values, rng, n_update_steps=3, init_var_clusters=5,
                kernel_backend=backend,
            )
            result.state.check_invariants()
            outcomes.append(_co_snapshot(result.state, rng))
        assert outcomes[0] == outcomes[1]

    def test_non_contiguous_data_is_copied_not_refused(self):
        start = _co_state(8, 9, 7, 3, 2)
        views = (start.data, np.asfortranarray(start.data), start.data[:, ::-1][:, ::-1])
        outcomes = []
        for data in views:
            state = start.copy()
            state.data = data
            outcomes.append(_run_co_program("native", state, "RM", "philox", False, 9))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0] == _run_co_program("numpy", start, "RM", "philox", False, 9)

    def test_every_shape_takes_the_native_sweeps(self, monkeypatch):
        """A state whose ``gammaln`` table passes 2**22 entries (``n * m + 1``)
        still sweeps in one native call per variable sweep, reassign and
        merge, and leaves what the NumPy loops leave."""
        n, m = 2049, 2048
        assert n * m + 1 > 1 << 22
        start = _co_state(4, n, m, 2, 2)
        entered = []
        original = _native.NativeKernels.var_sweep
        monkeypatch.setattr(
            _native.NativeKernels, "var_sweep",
            lambda self, **pack: entered.append(pack["merge"]) or original(self, **pack),
        )
        got = _run_co_program("native", start, "RM", "philox", True, 2)
        assert entered == [False, True]
        assert got == _run_co_program("numpy", start, "RM", "philox", True, 2)

    def test_concurrent_sweeps_share_nothing(self):
        """Two threads may run chains at once with the GIL released: the C
        scratch is per call."""
        datas = [np.random.default_rng(seed).normal(size=(24, 12)) for seed in range(4)]

        def run(index):
            result = run_ganesh(
                datas[index], _rng(index), n_update_steps=4, kernel_backend="native"
            )
            return _co_snapshot(result.state, _rng(0))

        serial = [run(i) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestOneGammalnTable:
    """A state's one ``gammaln`` table serves both sweep kinds: the variable
    sweeps read it whole, an observation sweep of a ``rows``-member cluster
    every ``rows``-th entry."""

    @settings(max_examples=100, deadline=None)
    @given(
        alpha0=st.floats(min_value=0.0, max_value=1e12, exclude_min=True),
        n=st.integers(1, 120),
        m=st.integers(1, 120),
        data=st.data(),
    )
    def test_strided_table_is_the_per_sweep_table(self, alpha0, n, m, data):
        rows = data.draw(st.integers(1, n))
        state = CoClusterState(
            np.zeros((n, m)), np.zeros(n, dtype=np.int64), [np.zeros(m, dtype=np.int64)],
            NormalGammaPrior(alpha0=alpha0),
        )
        want = normal_gamma.gammaln(alpha0 + (rows * np.arange(m + 1.0)) / 2.0)
        assert state.obs_lgam(rows).tobytes() == want.tobytes()

    @needs_native
    def test_gammaln_tabulated_once_per_state_and_per_obs_only_run(self, small_matrix, monkeypatch):
        """``gammaln`` is tabulated once per ``CoClusterState`` and once per
        ``run_obs_only_ganesh`` run, never per sweep; every other call is a
        ``log_marginal``."""
        callers = []
        original = normal_gamma.gammaln

        def counting(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        monkeypatch.setattr(normal_gamma, "gammaln", counting)
        obs_sweeps = []
        original_sweep = _native.NativeKernels.obs_sweep
        monkeypatch.setattr(
            _native.NativeKernels, "obs_sweep",
            lambda self, *a, **kw: obs_sweeps.append(1) or original_sweep(self, *a, **kw),
        )
        data = small_matrix.values
        result = run_ganesh(
            data, _rng(7), n_update_steps=3, init_var_clusters=6, kernel_backend="native"
        )
        assert result.state.n_clusters > 1 and len(obs_sweeps) > 2 * 3
        assert set(callers) == {"log_marginal", "gammaln_table"}
        assert callers.count("gammaln_table") == 1
        del callers[:], obs_sweeps[:]
        run_obs_only_ganesh(data[:9], _rng(8), n_update_steps=4, kernel_backend="native")
        assert len(obs_sweeps) == 2 * 4
        assert callers.count("gammaln_table") == 1


def _set(name, index, value):
    def corrupt(pack):
        pack[name][index] = value

    return corrupt


def _replace(name, make):
    def corrupt(pack):
        pack[name] = make(pack[name])

    return corrupt


def _empty_cluster(pack):
    pack["var_labels"][pack["var_labels"] == 1] = 0


@needs_native
class TestVarSweepEntryValidation:
    """``NativeKernels.var_sweep`` checks everything the C loop indexes by
    before C writes anything; a refusal leaves the pack, and the state it was
    packed from, as they were."""

    N, M = 15, 10

    def _packed(self, merge=False):
        state, _ = _state(seed=2, n=self.N, m=self.M)
        pack = state.var_sweep_pack(merge)
        pack["span"] = _rng(1).span(state.n_clusters if merge else 2 * self.N)
        return state, pack

    @staticmethod
    def _arrays(pack):
        names = ("var_labels", "member_order", "obs_labels", "offsets", "lm")
        return [pack[name].copy() for name in names] + [a.copy() for a in pack["stats"]]

    REFUSALS = [
        ("label above k", _set("var_labels", 0, 99), "var labels and member order"),
        ("negative label", _set("var_labels", 3, -1), "var labels and member order"),
        ("empty cluster", _empty_cluster, "no cluster may be empty"),
        ("variable listed twice", _set("member_order", 0, 14), "listed once"),
        ("member outside n", _set("member_order", 2, 15), "var labels and member order"),
        ("short member order", _replace("member_order", lambda a: a[:-1].copy()),
         "member order must"),
        ("int32 labels", _replace("var_labels", lambda a: a.astype(np.int32)),
         "var labels must be"),
        ("obs label above k_c", _set("obs_labels", (1, 0), 7), "obs labels must lie"),
        ("negative obs label", _set("obs_labels", (0, 4), -1), "obs labels must lie"),
        ("1-D obs labels", _replace("obs_labels", lambda a: a.reshape(-1)),
         "obs labels must be"),
        ("offsets past the blocks", _set("offsets", -1, 99), "offsets do not tile"),
        ("an empty offset range", _set("offsets", 1, 0), "offsets do not tile"),
        ("fewer blocks than offsets", _replace("n_blocks", lambda b: b - 1),
         "offsets do not tile"),
        ("count not rows x size", lambda pack: pack["stats"][0].fill(3.0),
         "do not describe the labels"),
        ("short statistics", _replace("lm", lambda a: a[:5].copy()), "lm must be"),
        ("short span", _replace("span", lambda a: a.stream.span(a.start, a.count - 1)),
         "span must cover at least"),
        ("an array of draws", _replace("span", lambda a: a.array()), "span must be a DrawSpan"),
        ("a span past the counter",
         _replace("span", lambda a: a.stream.span((1 << 64) - a.count, a.count)),
         r"draws in \[0, 2\*\*64\)"),
        ("data not n x m", _replace("data", lambda a: a[:, :-1]), "data must have shape"),
        ("short gammaln table", _replace("lgam", lambda a: a[:-1].copy()),
         "gammaln table must be"),
    ]

    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize(
        "corrupt, match", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
    )
    def test_refusals_leave_pack_and_state_untouched(self, corrupt, match, merge):
        state, pack = self._packed(merge)
        corrupt(pack)
        before = self._arrays(pack)
        with pytest.raises(ValueError, match=match):
            _native.load().var_sweep(**pack)
        for was, now in zip(before, self._arrays(pack)):
            np.testing.assert_array_equal(was, now)
        state.check_invariants()

    def test_a_refused_sweep_leaves_the_state_sweepable(self, monkeypatch):
        """Through the state's own entry: the refusal surfaces, the state
        still passes its invariants and the next sweep runs as if nothing
        had happened."""
        state, _ = _state(seed=2, n=self.N, m=self.M)
        want = state.copy()
        original = CoClusterState.var_sweep_pack

        def corrupted(self, merge=False):
            pack = original(self, merge)
            pack["stats"][1][2] = np.nan  # never reaches C's arithmetic
            pack["offsets"][-1] += 1
            return pack

        native = _native.load()
        monkeypatch.setattr(CoClusterState, "var_sweep_pack", corrupted)
        with pytest.raises(ValueError, match="offsets do not tile"):
            reassign_var_sweep(state, _rng(1), native=native)
        state.check_invariants()
        monkeypatch.undo()
        reassign_var_sweep(state, _rng(2), native=native)
        reassign_var_sweep(want, _rng(2), native=native)
        assert _co_snapshot(state, _rng(0)) == _co_snapshot(want, _rng(0))

    @pytest.mark.parametrize("merge", [False, True])
    def test_valid_arguments_run(self, merge):
        state, pack = self._packed(merge)
        origin, sizes, moves = _native.load().var_sweep(**pack, trace=True)
        assert origin.shape == sizes.shape and int(sizes.sum()) == self.N
        assert moves.shape == ((state.n_clusters if merge else self.N), 2)
        assert _native.load().var_sweep(**self._packed(merge)[1])[2] is None


@needs_native
class TestOneNativeCallPerSweep:
    """The dispatch-bound cost model taken to its end: under the native
    backend a ``learn()`` — traced or not — enters the native entry once per
    observation sweep and once per variable sweep and never the per-move
    scoring methods; under ``numpy`` the native entries are never entered."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counted = dict.fromkeys(
            ("obs_sweeps", "obs_native", "var_sweeps", "var_native", "per_move"), 0
        )

        def counting(target, name, key):
            original = getattr(target, name)

            def wrapper(*args, **kwargs):
                counted[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(target, name, wrapper)

        counting(coclustering, "reassign_obs_sweep", "obs_sweeps")
        counting(coclustering, "merge_obs_sweep", "obs_sweeps")
        counting(_native.NativeKernels, "obs_sweep", "obs_native")
        counting(coclustering, "reassign_var_sweep", "var_sweeps")
        counting(coclustering, "merge_var_sweep", "var_sweeps")
        counting(_native.NativeKernels, "var_sweep", "var_native")
        counting(ObsClustering, "move_obs_scores", "per_move")
        counting(ObsClustering, "merge_obs_scores", "per_move")
        counting(CoClusterState, "_stacked_lm", "per_move")
        counting(CoClusterState, "move_var_scores", "per_move")
        counting(CoClusterState, "merge_var_scores", "per_move")
        return counted

    @staticmethod
    def _learn(matrix, backend, trace):
        config = LearnerConfig(
            max_sampling_steps=5, n_ganesh_runs=2,
            parallel=ParallelConfig(kernel_backend=backend),
        )
        return LemonTreeLearner(config).learn(matrix, seed=3, trace=trace)

    @pytest.mark.parametrize("traced", [False, True])
    def test_native_enters_once_per_sweep(self, tiny_matrix, counts, traced):
        self._learn(tiny_matrix, "native", WorkTrace() if traced else None)
        assert counts["obs_sweeps"] > 0 and counts["var_sweeps"] > 0
        assert counts["obs_native"] == counts["obs_sweeps"]
        assert counts["var_native"] == counts["var_sweeps"]
        assert counts["per_move"] == 0

    @pytest.fixture
    def drawn_for(self, monkeypatch):
        """Every materialised Philox draw of a ``learn()``: the span
        consumers (``None``: none) on the stack of each ``_draws_at`` call."""
        consumers = {
            "score_nodes", "_score_chunk_run", "native_sweep", "native_var_sweep",
        }
        calls = []
        original = PhiloxStream._draws_at

        def wrapper(stream, offset, count):
            frame, on_stack = sys._getframe(1), set()
            while frame is not None:
                on_stack.add(frame.f_code.co_name)
                frame = frame.f_back
            calls.append(sorted(on_stack & consumers) or None)
            return original(stream, offset, count)

        monkeypatch.setattr(PhiloxStream, "_draws_at", wrapper)
        return calls

    def test_native_philox_learn_draws_inside_the_kernel(self, tiny_matrix, drawn_for):
        """Split scoring and the four sweep kinds hand the native entries
        addresses: no draw is materialised for them.  What still pre-draws
        (``random_labels``, the ``next_uniform`` refill) does; under
        ``numpy`` the same spans materialise through ``.array()``."""
        self._learn(tiny_matrix, "native", None)
        assert drawn_for and all(consumer is None for consumer in drawn_for)
        del drawn_for[:]
        self._learn(tiny_matrix, "numpy", None)
        assert ["score_nodes"] in drawn_for
        assert not any(c and "native_sweep" in c for c in drawn_for)  # the loops ran

    def test_numpy_never_enters_the_native_entry(self, tiny_matrix, counts):
        self._learn(tiny_matrix, "numpy", None)
        assert counts["obs_sweeps"] > 0 and counts["var_sweeps"] > 0
        assert counts["per_move"] > 0
        assert counts["obs_native"] == counts["var_native"] == 0

    def test_traced_records_are_backend_independent(self, tiny_matrix):
        steps = []
        for backend in ("numpy", "native"):
            trace = WorkTrace()
            self._learn(tiny_matrix, backend, trace)
            steps.append(
                [(s.phase, s.costs.tolist(), s.n_collectives, s.run) for s in trace.steps]
            )
        assert steps[0] == steps[1]
        phases = {phase for phase, *_ in steps[0]}
        assert {"ganesh.var_reassign", "ganesh.var_merge", "modules.obs_merge"} <= phases


@needs_native
class TestSweepCertification:
    def test_oracle_is_the_numpy_loop(self, monkeypatch):
        """The sweep loops the loader compares against score move by move,
        through NumPy, and nothing in the certification resolves ``auto`` or
        ``native``: that would re-enter the load."""
        kernels = _native.load()
        per_move = dict.fromkeys(("move_obs_scores", "move_var_scores"), 0)

        def counting(target, name):
            original = getattr(target, name)

            def wrapper(self, *args, **kwargs):
                per_move[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(target, name, wrapper)

        def reentered(*args, **kwargs):
            raise AssertionError("a backend was resolved during certification")

        counting(ObsClustering, "move_obs_scores")
        counting(CoClusterState, "move_var_scores")
        monkeypatch.setattr(_native, "load", reentered)
        monkeypatch.setattr(_native, "availability", reentered)
        assert _native._certify(kernels) is None
        assert all(per_move.values())

    @pytest.mark.parametrize("doctor", ["block marginal", "draw index"])
    def test_doctored_var_sweep_fails_certification(self, doctor):
        """One block marginal an ulp off, or the draws read one index late:
        the battery rejects the provider and names the variable sweep."""
        kernels = _native.load()

        class Doctored:
            def __getattr__(self, name):
                return getattr(kernels, name)

            def var_sweep(self, **pack):
                if doctor == "draw index":
                    span = pack["span"]
                    pack["span"] = span.stream.span(span.start + 1, span.count)
                origin, sizes, moves = kernels.var_sweep(**pack)
                if doctor == "block marginal":
                    slot, k0 = int(origin[0]), len(pack["obs_labels"])
                    block = (
                        pack["offsets"][slot] if slot < k0 else pack["n_blocks"] + slot - k0
                    )
                    pack["lm"][block] = np.nextafter(pack["lm"][block], np.inf)
                return origin, sizes, moves

        mismatch = _native._certify(Doctored())
        assert mismatch is not None and mismatch.startswith("var sweep mismatch")

    def test_forced_mismatch_is_certification_failed(self, monkeypatch, tiny_matrix):
        """auto falls back to NumPy with the one-time warning and learns the
        same network; an explicit native request raises."""
        config = LearnerConfig(max_sampling_steps=5)
        want = network_fingerprint(
            LemonTreeLearner(config).learn(tiny_matrix, seed=4).network
        )
        forced = tuple(  # the observation-sweep row's entry runs return nothing
            row._replace(runs=lambda case, kernels=None, runs=row.runs: (
                runs(case) if kernels is None else [()]
            )) if row.name == "obs sweep" else row
            for row in _native._CERTIFICATION
        )
        monkeypatch.setattr(_native, "_CERTIFICATION", forced)
        monkeypatch.setattr(kernel_mod, "_WARNED_NATIVE_FALLBACK", False)
        _native.invalidate()
        try:
            info = _native.availability()
            assert info["status"] == "certification-failed"
            assert "obs sweep mismatch" in info["detail"]
            with pytest.warns(RuntimeWarning, match="certification-failed"):
                got = LemonTreeLearner(config).learn(tiny_matrix, seed=4).network
            assert network_fingerprint(got) == want
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the warning is one-time
                assert resolve_kernel_backend("auto") == ("numpy", None)
            with pytest.raises(RuntimeError, match="certification-failed"):
                resolve_kernel_backend("native")
        finally:
            monkeypatch.undo()
            _native.invalidate()
        assert _native.load() is not None


class TestNumpySweepOracle:
    """Runs everywhere (the extension cannot exist on the no-toolchain job):
    the NumPy loops are the ``numpy`` backend's only path and the oracle the
    native entry is certified against, and they score move by move."""

    @pytest.mark.parametrize("seed", range(3))
    def test_obs_sweeps_preserve_invariants(self, seed):
        state, data = _state(seed=seed)
        rng = _rng(seed + 30)
        for cluster in state.clusters:
            block = data[cluster.members]
            for _ in range(2):
                reassign_obs_sweep(cluster.obs, block, rng)
                cluster.obs.check_invariants(block)
                merge_obs_sweep(cluster.obs, rng)
                cluster.obs.check_invariants(block)
        state.check_invariants()

    def test_draws_per_sweep(self):
        """The counts the native entry pre-draws: two uniforms per reassign
        iteration, one per merge iteration, and a merge sweep makes exactly
        as many iterations as it found clusters."""
        block = _block(2, 5, 14)
        oc = ObsClustering.from_block(block, np.arange(14) % 5)
        rng = _rng(40)
        records = []
        hooks = SweepHooks(record=lambda *record: records.append(record))
        reassign_obs_sweep(oc, block, rng, hooks)
        assert rng.offset == 2 * 14 and len(records) == 14
        k, before = oc.n_clusters, rng.offset
        del records[:]
        merge_obs_sweep(oc, rng, hooks)
        assert rng.offset - before == k == len(records)

    def test_draws_per_variable_sweep(self):
        """``2n`` uniforms and ``n`` iterations per reassign sweep; a merge
        sweep makes exactly as many iterations as it found clusters."""
        state, _ = _state(seed=3)
        rng = _rng(42)
        records = []
        hooks = SweepHooks(record=lambda *record: records.append(record))
        reassign_var_sweep(state, rng, hooks)
        assert rng.offset == 2 * state.n_vars and len(records) == state.n_vars
        k, before = state.n_clusters, rng.offset
        del records[:]
        merge_var_sweep(state, rng, hooks)
        assert rng.offset - before == k == len(records)

    def test_variable_sweeps_score_move_by_move(self, monkeypatch):
        calls = []
        original = CoClusterState._stacked_lm
        monkeypatch.setattr(
            CoClusterState, "_stacked_lm",
            lambda self, *a, **kw: calls.append(1) or original(self, *a, **kw),
        )
        state, _ = _state(seed=4)
        reassign_var_sweep(state, _rng(43))
        assert len(calls) == state.n_vars

    def test_scores_move_by_move(self, monkeypatch):
        calls = []
        original = ObsClustering.move_obs_scores
        monkeypatch.setattr(
            ObsClustering, "move_obs_scores",
            lambda self, *a, **kw: calls.append(1) or original(self, *a, **kw),
        )
        block = _block(4, 3, 9)
        oc = ObsClustering.from_block(block, np.arange(9) % 2)
        reassign_obs_sweep(oc, block, _rng(41))
        assert len(calls) == 9
