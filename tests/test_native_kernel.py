"""Tests for the native-compiled split-scoring backend.

Three contracts:

* **resolution semantics** — ``kernel_backend`` validation on
  :class:`ParallelConfig` and the CLI; ``"native"`` raises when the
  extension is unavailable while ``"auto"`` silently falls back to NumPy
  for *expected* absence (disabled, no cffi, no compiler) and warns once
  only for genuine failures;
* **bit identity** — the native chunk evaluator, grouped statistics and
  normal-gamma tail agree with the NumPy oracle bit for bit, property-based
  over random shapes, duplicate-heavy rows, sub-range ``item_indices``,
  both RNG stream backends, extreme magnitudes and an active
  ``allocation_cap`` (which must raise the same
  :class:`AllocationCapExceeded` wherever the NumPy path would);
* **the fused chain** — a native kernel runs the scorer's whole sampling
  chain in one call; results, ``accepted``, counters and the memo's end
  state equal the NumPy chain's (and the dense seed path's) on random,
  tie-grid and constant-row nodes, through ``_score_chunk_run``
  sub-ranges, on a partly filled memo and under an allocation cap;
  threads running chains on one kernel's memo agree with the
  single-threaded run.  These run on the NumPy backend alone when the
  extension is absent, pinning the fallback to the dense oracle;
* **grouping tables** — the one-pass ``_build_tables`` equals the per-row
  ``np.unique`` construction, signed zeros and duplicates included;
* **seen-bitmask caching** — a legitimately non-finite score is cached
  like any other value instead of reading as a perpetual miss, and the
  kernel counters flow into :class:`WorkTrace.kernel_counters` from both
  the serial path and spawn pool workers.

All native-vs-numpy tests skip cleanly when the extension cannot build
(no cffi / no C compiler); the resolution-semantics and seen-bitmask tests
run everywhere.
"""

import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.scoring.kernel as kernel_mod
from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.rng.streams import make_stream
from repro.scoring.kernel import (
    AllocationCapExceeded,
    KERNEL_BACKENDS,
    LazySplitKernel,
    allocation_cap,
    consume_kernel_totals,
    resolve_kernel_backend,
    set_kernel_backend,
    split_kernel_from_arrays,
)
from repro.scoring.normal_gamma import NormalGammaPrior, log_marginal
from repro.scoring.split_score import SplitScorer
from repro.scoring.suffstats import StatsArrays

NATIVE = _native.load() is not None
needs_native = pytest.mark.skipif(
    not NATIVE,
    reason=f"native backend unavailable ({_native.availability()['status']})",
)
BACKENDS = ["numpy"] + (["native"] if NATIVE else [])


def _uniform_span(n_items, dpi, seed=0, backend="philox"):
    """The draws of :func:`_uniform_block` as the scorers' callers pass
    them: by address on a keyed stream, end to end otherwise."""
    from repro.rng.streams import IndexedStream

    return IndexedStream(make_stream(seed, "u", backend=backend), dpi).items_span(
        0, n_items
    )


def _uniform_block(n_items, dpi, seed=0, backend="philox"):
    return make_stream(seed, "u", backend=backend).block(0, n_items * dpi).reshape(
        n_items, dpi
    )


def _node_arrays(seed, n_vars=20, n_obs=14, n_parents=5, duplicates=False, scale=1.0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_vars, n_obs)) * scale
    if duplicates:
        data = np.round(data / scale) * scale
    obs = np.arange(n_obs, dtype=np.int64)
    left_obs = rng.choice(obs, size=max(1, n_obs // 2), replace=False)
    parents = rng.choice(n_vars, size=n_parents, replace=False).astype(np.int64)
    return data, obs, left_obs, parents


# -- resolution semantics ----------------------------------------------------


class TestBackendConfig:
    def test_parallel_config_accepts_backends(self):
        for name in KERNEL_BACKENDS:
            assert ParallelConfig(kernel_backend=name).kernel_backend == name

    def test_parallel_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            ParallelConfig(kernel_backend="cuda")

    def test_learner_config_embeds_backend(self):
        cfg = LearnerConfig(parallel=ParallelConfig(kernel_backend="numpy"))
        assert cfg.parallel.kernel_backend == "numpy"

    def test_set_kernel_backend_roundtrip(self):
        prev = set_kernel_backend("numpy")
        try:
            assert kernel_mod.configured_kernel_backend() == "numpy"
            assert resolve_kernel_backend() == ("numpy", None)
        finally:
            set_kernel_backend(prev)

    def test_set_kernel_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_kernel_backend("fortran")

    def test_numpy_never_touches_extension(self):
        name, kernels = resolve_kernel_backend("numpy")
        assert name == "numpy" and kernels is None

    def test_cli_flag_flows_into_config(self):
        from repro.cli import _parallel_config, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["modules", "--preset", "yeast", "--modules-file", "x.json",
             "--kernel-backend", "numpy"]
        )
        assert _parallel_config(args).kernel_backend == "numpy"


class TestAutoFallback:
    def test_disabled_is_silent(self, monkeypatch):
        """``REPRO_NATIVE_DISABLE`` is expected absence: auto falls back to
        NumPy without warning, explicit native raises."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        monkeypatch.setattr(kernel_mod, "_WARNED_NATIVE_FALLBACK", False)
        _native.invalidate()
        try:
            assert _native.load() is None
            assert _native.availability()["status"] == "disabled"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                name, kernels = resolve_kernel_backend("auto")
            assert name == "numpy" and kernels is None
            with pytest.raises(RuntimeError, match="native"):
                resolve_kernel_backend("native")
            kernel = LazySplitKernel(
                np.zeros((2, 3)), np.ones(3), (1.0,), backend="auto"
            )
            assert kernel.backend == "numpy"
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            _native.invalidate()

    @needs_native
    def test_native_available_resolves_native(self):
        name, kernels = resolve_kernel_backend("auto")
        assert name == "native" and kernels is not None
        assert _native.availability()["status"] == "native"
        assert kernels.provider in ("svml", "libm")


# -- bit identity: the split kernel ------------------------------------------


@needs_native
class TestSplitKernelBitIdentity:
    def _compare(self, data, obs, left_obs, parents, scorer, uniforms):
        results = {}
        for backend in ("numpy", "native"):
            kernel = split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid, backend=backend
            )
            chain = scorer.score_batch_kernel(kernel, uniforms)
            best = scorer.score_grid_best_kernel(kernel)
            results[backend] = (kernel, chain, best)
        numpy_kernel, numpy_chain, numpy_best = results["numpy"]
        native_kernel, native_chain, native_best = results["native"]
        for got, want in zip(native_chain, numpy_chain):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(native_best, numpy_best):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(native_kernel._seen, numpy_kernel._seen)
        np.testing.assert_array_equal(
            native_kernel._cache[native_kernel._seen],
            numpy_kernel._cache[numpy_kernel._seen],
        )
        assert native_kernel.evaluations == numpy_kernel.evaluations
        assert native_kernel.hits == numpy_kernel.hits

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_vars=st.integers(2, 12),
        n_obs=st.integers(1, 24),
        n_parents=st.integers(1, 6),
        duplicates=st.booleans(),
        scale=st.sampled_from([1.0, 1e-3, 1e6, 1e154]),
        rng_backend=st.sampled_from(["philox", "mrg"]),
    )
    def test_property_chain_and_grid(
        self, seed, n_vars, n_obs, n_parents, duplicates, scale, rng_backend
    ):
        n_parents = min(n_parents, n_vars)
        data, obs, left_obs, parents = _node_arrays(
            seed, n_vars=n_vars, n_obs=n_obs, n_parents=n_parents,
            duplicates=duplicates, scale=scale,
        )
        scorer = SplitScorer(max_steps=5, stop_repeats=2)
        uniforms = _uniform_block(
            parents.size * obs.size, scorer.draws_per_item, seed, rng_backend
        )
        self._compare(data, obs, left_obs, parents, scorer, uniforms)

    def test_subrange_item_indices(self):
        """The partitioned backends score [row0, row1) slices against a
        kernel built on a parent sub-slice — native must reproduce the
        NumPy kernel on exactly this arithmetic."""
        data, obs, left_obs, parents = _node_arrays(11, n_parents=6)
        scorer = SplitScorer(max_steps=5, stop_repeats=2)
        n_obs = obs.size
        n_items = parents.size * n_obs
        uniforms = _uniform_block(n_items, scorer.draws_per_item, 11)
        for row0, row1 in [(0, n_items), (3, 17), (n_obs, 3 * n_obs), (5, 6)]:
            l0, l1 = row0 // n_obs, (row1 - 1) // n_obs + 1
            items = np.arange(row0 - l0 * n_obs, row1 - l0 * n_obs)
            parts = {}
            for backend in ("numpy", "native"):
                kernel = split_kernel_from_arrays(
                    data, obs, left_obs, parents[l0:l1], scorer.beta_grid,
                    backend=backend,
                )
                parts[backend] = scorer.score_batch_kernel(
                    kernel, uniforms[row0:row1], item_indices=items
                )
            for got, want in zip(parts["native"], parts["numpy"]):
                np.testing.assert_array_equal(got, want)

    def test_allocation_cap_parity(self):
        """Under a cap that blocks the dense margins matrix, the native
        kernel chunks its evaluations exactly like the NumPy kernel (the
        guard lives in shared Python code) and still matches bit for bit;
        a cap that blocks construction raises for both backends."""
        from repro.trees.splits import margins_from_arrays

        data, obs, left_obs, parents = _node_arrays(
            23, n_vars=40, n_obs=30, n_parents=10
        )
        scorer = SplitScorer(max_steps=4, stop_repeats=2)
        n_items = parents.size * obs.size
        cap = n_items * scorer.beta_grid.size + 4 * n_items
        assert cap < n_items * obs.size
        uniforms = _uniform_block(n_items, scorer.draws_per_item, 23)
        out = {}
        with allocation_cap(cap):
            with pytest.raises(AllocationCapExceeded):
                margins_from_arrays(data, obs, left_obs, parents)
            for backend in ("numpy", "native"):
                kernel = split_kernel_from_arrays(
                    data, obs, left_obs, parents, scorer.beta_grid,
                    backend=backend,
                )
                out[backend] = scorer.score_batch_kernel(kernel, uniforms)
                assert kernel.peak_chunk_elements <= cap
        for got, want in zip(out["native"], out["numpy"]):
            np.testing.assert_array_equal(got, want)
        with allocation_cap(10):
            for backend in ("numpy", "native"):
                with pytest.raises(AllocationCapExceeded):
                    LazySplitKernel(
                        np.zeros((4, 4)), np.ones(4), (1.0, 2.0), backend=backend
                    )

    def test_explicit_chunk_bound_parity(self):
        data, obs, left_obs, parents = _node_arrays(29, n_obs=16, n_parents=8)
        scorer = SplitScorer(max_steps=3)
        out = {}
        uniforms = _uniform_block(
            parents.size * obs.size, scorer.draws_per_item, 29
        )
        for backend in ("numpy", "native"):
            kernel = split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid,
                max_chunk_elements=5 * obs.size, backend=backend,
            )
            out[backend] = scorer.score_batch_kernel(kernel, uniforms)
            assert kernel.peak_chunk_elements <= 5 * obs.size
        for got, want in zip(out["native"], out["numpy"]):
            np.testing.assert_array_equal(got, want)


# -- the fused chain ----------------------------------------------------------


def _kind_node(kind, seed, n_vars, n_obs, n_parents):
    """A node of one adversarial family: continuous values, a coarse tie
    grid with signed zeros, or constant parent rows."""
    data, obs, left_obs, parents = _node_arrays(
        seed, n_vars=n_vars, n_obs=n_obs, n_parents=n_parents
    )
    if kind == "ties":
        data = np.round(data)
        data[data == 0.0] = np.where(
            np.random.default_rng(seed).random(int((data == 0.0).sum())) < 0.5,
            0.0, -0.0,
        )
    elif kind == "constant":
        data[parents[::2]] = 1.5
    return data, obs, left_obs, parents


def _memo_state(kernel):
    return (
        kernel.hits,
        kernel.evaluations,
        kernel.peak_chunk_elements,
        kernel._seen.copy(),
        np.where(kernel._seen, kernel._cache, 0.0),
    )


def _assert_same_memo(got, want):
    assert got[:3] == want[:3]
    np.testing.assert_array_equal(got[3], want[3])
    np.testing.assert_array_equal(got[4], want[4])


class TestFusedChain:
    """``score_batch_kernel`` on every available backend against two
    oracles: the dense seed path (values) and the NumPy chain over
    ``LazySplitKernel.scores`` (counters, memo end state)."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["random", "ties", "constant"]),
        n_obs=st.integers(1, 20),
        n_parents=st.integers(1, 5),
        max_steps=st.sampled_from([1, 4, 9]),
        stop_repeats=st.sampled_from([1, 2]),
        chunk_rows=st.sampled_from([1, 3, 1000]),
        rng_backend=st.sampled_from(["philox", "mrg"]),
    )
    def test_property_matches_dense_and_numpy_chain(
        self, seed, kind, n_obs, n_parents, max_steps, stop_repeats, chunk_rows,
        rng_backend,
    ):
        """... whether the draws arrive as rows or as their span: a Philox
        span's draws are computed inside the native call (keyed), an MRG
        span's are pre-drawn, the NumPy chain materialises either."""
        from repro.trees.splits import margins_from_arrays

        data, obs, left_obs, parents = _kind_node(kind, seed, 8, n_obs, n_parents)
        scorer = SplitScorer(max_steps=max_steps, stop_repeats=stop_repeats)
        draws = (parents.size * n_obs, scorer.draws_per_item, seed, rng_backend)
        uniforms = _uniform_block(*draws)
        dense = scorer.score_batch(
            margins_from_arrays(data, obs, left_obs, parents), uniforms
        )

        def make(backend):
            return split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid,
                max_chunk_elements=chunk_rows * n_obs, backend=backend,
            )

        oracle = make("numpy")
        scorer._run_chain(
            oracle.n_items, n_obs, uniforms,
            lambda rows, beta_idx: oracle.scores(oracle.item_groups[rows], beta_idx),
        )
        for backend in BACKENDS:
            for source in (uniforms, _uniform_span(*draws)):
                kernel = make(backend)
                assert kernel.backend == backend
                chain = scorer.score_batch_kernel(kernel, source)
                for got, want in zip(chain, dense):
                    np.testing.assert_array_equal(got, want)
                _assert_same_memo(_memo_state(kernel), _memo_state(oracle))

    def test_scorer_does_not_pin_the_kernel(self):
        """The scorer outlives nodes (and, under the daemon's lease, jobs);
        it must not keep the last node's value slice and memo alive."""
        data, obs, left_obs, parents = _node_arrays(5)
        scorer = SplitScorer(max_steps=3)
        for backend in BACKENDS:
            kernel = split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid, backend=backend
            )
            scorer.score_batch_kernel(
                kernel, _uniform_block(kernel.n_items, scorer.draws_per_item)
            )
            assert not hasattr(scorer, "last_memo")

    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_subranges_through_score_chunk_run(self, backend, rng_backend):
        """Split-level tasks score ``[row0, row1)`` slices of a node on
        kernels built over parent sub-slices; stitched together they equal
        whole-node ``score_node_splits`` (NumPy kernel) entry for entry —
        each slice's draws addressed from the module's stream, computed in
        the call (native + Philox) or pre-drawn (MRG, NumPy)."""
        from repro.datatypes import TreeNode
        from repro.parallel.tasks import SplitTask, _score_chunk_run, build_ctx
        from repro.rng.streams import IndexedStream
        from repro.trees.splits import score_node_splits

        data, obs, left_obs, parents = _kind_node("ties", 17, 12, 11, 6)
        config = LearnerConfig(
            max_sampling_steps=6, sampling_stop_repeats=2, rng_backend=rng_backend
        )
        seed, module_id, base = 3, 2, 40
        left = np.sort(left_obs)
        node = TreeNode(
            0, obs,
            left=TreeNode(1, left),
            right=TreeNode(2, np.setdiff1d(obs, left)),
        )
        ctx = build_ctx(data, parents, config, seed)
        istream = IndexedStream(
            make_stream(seed, "splits", module_id, backend=config.rng_backend),
            ctx["scorer"].draws_per_item,
        )
        prev = set_kernel_backend("numpy")
        try:
            whole = score_node_splits(
                data, module_id, 0, node, parents, ctx["scorer"], istream, base
            )
            set_kernel_backend(backend)
            n_items = parents.size * obs.size
            bounds = [0, 4, obs.size, 3 * obs.size + 5, n_items - 1, n_items]
            for row0, row1 in zip(bounds, bounds[1:]):
                task = SplitTask(module_id, obs, left, base, row0, row1, row0)
                offset, scores, steps, accepted = _score_chunk_run(ctx, task)
                assert offset == row0
                np.testing.assert_array_equal(scores, whole.log_scores[row0:row1])
                np.testing.assert_array_equal(steps, whole.steps[row0:row1])
                np.testing.assert_array_equal(accepted, whole.accepted[row0:row1])
        finally:
            set_kernel_backend(prev)

    def test_chain_on_a_partly_filled_memo(self):
        """A second chain on the same kernel runs against the memo the
        first one left partly filled, and every backend reports the results
        and counters of the NumPy chain."""
        data, obs, left_obs, parents = _kind_node("ties", 31, 10, 13, 4)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        n_items = parents.size * obs.size
        first = _uniform_block(n_items, scorer.draws_per_item, 31)
        second = _uniform_block(n_items, scorer.draws_per_item, 32)
        items = np.arange(5, n_items - 7)
        runs = {}
        for backend in BACKENDS:
            kernel = split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid, backend=backend
            )
            a = scorer.score_batch_kernel(kernel, first[items], item_indices=items)
            after_first = _memo_state(kernel)
            hits = kernel.hits
            b = scorer.score_batch_kernel(kernel, second)
            assert kernel.hits > hits
            runs[backend] = (a, b, after_first, _memo_state(kernel))
        for backend in BACKENDS[1:]:
            for got, want in zip(runs[backend][0] + runs[backend][1],
                                 runs["numpy"][0] + runs["numpy"][1]):
                np.testing.assert_array_equal(got, want)
            _assert_same_memo(runs[backend][2], runs["numpy"][2])
            _assert_same_memo(runs[backend][3], runs["numpy"][3])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cap_below_one_row_raises(self, backend):
        """``n_obs > cap``: not even a one-row evaluation chunk fits, and
        both chains refuse before evaluating anything."""
        data, obs, left_obs, parents = _node_arrays(41, n_obs=12, n_parents=3)
        scorer = SplitScorer(max_steps=3)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid, backend=backend
        )
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 41)
        with allocation_cap(obs.size - 1):
            with pytest.raises(AllocationCapExceeded, match="evaluation chunk"):
                scorer.score_batch_kernel(kernel, uniforms)
        assert kernel.evaluations == 0 and not kernel._seen.any()

    @needs_native
    def test_out_of_range_start_uniform_rejected(self):
        data, obs, left_obs, parents = _node_arrays(43, n_obs=6, n_parents=2)
        scorer = SplitScorer(max_steps=2)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid, backend="native"
        )
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 43)
        bad = uniforms.copy()
        bad[3, 0] = -0.5
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            scorer.score_batch_kernel(kernel, bad)
        with pytest.raises(ValueError, match="uniforms must have shape"):
            scorer.score_batch_kernel(kernel, uniforms[:, :-1])
        # a span holds whole rows of exactly draws_per_item: one item short,
        # and one draw past the last item, are both refused by count
        for n_draws in (11 * 5, 12 * 5 + 1):
            short = make_stream(43, "u").span(0, n_draws)
            with pytest.raises(
                ValueError, match=rf"exactly 5 draws for each of 12 items, got {n_draws}"
            ):
                scorer.score_batch_kernel(kernel, short)
        assert kernel.evaluations == 0 and not kernel._seen.any()

    @needs_native
    def test_read_only_uniforms_array_scores_like_a_writable_one(self):
        """The chain only reads its draws: a read-only array goes in as it
        is (as on the NumPy chain), and equals the writable copy's result."""
        data, obs, left_obs, parents = _node_arrays(44, n_obs=6, n_parents=2)
        scorer = SplitScorer(max_steps=2)
        uniforms = _uniform_block(12, scorer.draws_per_item, 44)
        frozen = uniforms.copy()
        frozen.setflags(write=False)
        results = []
        for draws in (uniforms, frozen):
            kernel = split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid, backend="native"
            )
            results.append(scorer.score_batch_kernel(kernel, draws))
        for want, got in zip(*results):
            np.testing.assert_array_equal(got, want)


def _philox_reference(key, offset, count, m0=0xD2E7470EE14C6C93, bias=1):
    """Philox4x64-10 from the paper's definition in Python integers, with
    NumPy's addressing: draw ``i`` is word ``i % 4`` at counter ``i // 4 +
    bias``, as a double ``(w >> 11) * 2**-53``.  ``m0`` and ``bias`` are the
    two things a wrong port gets wrong."""
    mask = (1 << 64) - 1
    out = []
    for index in range(offset, offset + count):
        c = [index // 4 + bias, 0, 0, 0]
        k0, k1 = key, 0
        for _ in range(10):
            p0, p1 = m0 * c[0], 0xCA5A826395121157 * c[2]
            c = [(p1 >> 64) ^ c[1] ^ k0, p1 & mask, (p0 >> 64) ^ c[3] ^ k1, p0 & mask]
            k0 = (k0 + 0x9E3779B97F4A7C15) & mask
            k1 = (k1 + 0xBB67AE8584CAA73B) & mask
        out.append((c[index % 4] >> 11) * 2.0**-53)
    return np.array(out)


@needs_native
class TestPhiloxInKernel:
    """The generator the native entries draw with is ``PhiloxStream.block``."""

    @settings(max_examples=80, deadline=None)
    @given(
        key=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
        counter=st.one_of(st.integers(0, 100), st.integers(2**32, 2**61)),
        residue=st.integers(0, 3),
        count=st.one_of(st.integers(0, 40), st.integers(0, 10**5)),
    )
    def test_property_equals_philox_stream_block(self, key, counter, residue, count):
        from repro.rng.philox import PhiloxStream

        offset = 4 * counter + residue
        got = _native.load().philox_uniforms(key, offset, count)
        stream = PhiloxStream(key)  # an empty path leaves the seed as the key
        assert stream.key == key
        np.testing.assert_array_equal(got, stream.block(offset, count))

    def test_equals_the_definition(self):
        """... and both equal a third, independent implementation."""
        for key, offset, count in _native._PHILOX_CASES:
            count = min(count, 12)  # the reference is a Python loop
            np.testing.assert_array_equal(
                _native.load().philox_uniforms(key, offset, count),
                _philox_reference(key, offset, count),
            )

    @pytest.mark.parametrize(
        "doctor", [dict(m0=0xD2E7470EE14C6C92), dict(bias=0)],
        ids=["wrong round constant", "counter bias dropped"],
    )
    def test_doctored_generator_fails_certification_by_name(self, doctor):
        kernels = _native.load()

        class Doctored:
            def __getattr__(self, name):
                return getattr(kernels, name)

            def philox_uniforms(self, key, offset, count):
                return _philox_reference(key, offset, count, **doctor)

        assert _native._certify(kernels) is None
        mismatch = _native._certify(Doctored())
        assert mismatch is not None and "philox" in mismatch

    @pytest.mark.parametrize(
        "key, offset, count",
        [(1, -1, 4), (1, 0, -4), (-1, 0, 4), (1 << 64, 0, 4), (1, (1 << 64) - 4, 4)],
    )
    def test_addresses_that_would_wrap_are_refused(self, key, offset, count):
        with pytest.raises(ValueError, match="Philox key must fit 64 bits"):
            _native.load().philox_uniforms(key, offset, count)

    def test_only_a_philox_span_goes_in_by_address(self):
        """The one validator behind the five entries' draw arguments: a
        span (keyed, by construction) is (NULL, key, start); an array — what
        an MRG stream hands over — goes in as the array it is; too few
        draws, or not ``float64``, is refused."""
        kernels = _native.load()
        ffi = kernels._ffi
        philox, mrg = make_stream(3, "a"), make_stream(3, "a", backend="mrg")
        assert kernels._draws(philox.span(5, 8), 8) == (ffi.NULL, philox.key, 5)
        for source in (mrg.block(5, 8), philox.block(5, 8)):
            pointer, key, offset = kernels._draws(source, 8)
            assert (key, offset) == (0, 0)
            np.testing.assert_array_equal(np.frombuffer(ffi.buffer(pointer), count=8), source)
        for source in (philox.span(5, 8), np.zeros(8)):
            with pytest.raises(ValueError, match="uniforms must"):
                kernels._draws(source, 9)
        with pytest.raises(ValueError, match="uniforms must be a writable C-contiguous"):
            kernels._draws(np.zeros(8, dtype=np.float32), 8)

    def test_a_span_past_the_counter_is_refused_before_c(self):
        """A sweep handed the last draws of the stream: refused, state
        untouched (in C ``offset + i`` would wrap to draw 0)."""
        from repro.ganesh.state import ObsClustering
        from repro.rng.philox import PhiloxStream
        from repro.rng.streams import GibbsRandom

        block = np.random.default_rng(0).normal(size=(4, 6))
        oc = ObsClustering.from_block(block, np.arange(6) % 2)
        before = oc.labels.copy(), oc.lm.copy()
        rng = GibbsRandom(PhiloxStream(3, offset=(1 << 64) - 12))
        with pytest.raises(ValueError, match="Philox key must fit 64 bits"):
            oc.native_sweep(_native.load(), rng, block)
        np.testing.assert_array_equal(oc.labels, before[0])
        np.testing.assert_array_equal(oc.lm, before[1])


@needs_native
class TestSharedMemoThreads:
    """cffi drops the GIL for the whole fused call, and threads may run
    chains on one kernel, i.e. on one lent memo: a memo slot must be
    published score-first, flag-second."""

    def test_threads_on_one_memo_agree_with_one(self):
        # Sized so the threads overlap inside the C call: with the flag
        # published before the score, this fails in every run of 25 rounds.
        data, obs, left_obs, parents = _kind_node("ties", 53, 70, 96, 64)
        values = data[parents][:, obs]
        sign = np.where(np.isin(obs, left_obs), 1.0, -1.0)
        scorer = SplitScorer(max_steps=12, stop_repeats=3)
        n_items = parents.size * obs.size
        n_threads = 4  # more than the box has cores
        blocks = [
            _uniform_block(n_items, scorer.draws_per_item, 60 + t)
            for t in range(n_threads)
        ]
        solo = LazySplitKernel(values, sign, scorer.beta_grid, backend="native")
        want = [scorer.score_batch_kernel(solo, block)[:3] for block in blocks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(25):
                shared = LazySplitKernel(
                    values, sign, scorer.beta_grid, backend="native"
                )
                got = [None] * n_threads
                barrier = threading.Barrier(n_threads)

                def work(t):
                    barrier.wait(timeout=30)
                    got[t] = shared.run_chain(
                        None, blocks[t], scorer.max_steps, scorer.stop_repeats
                    )

                threads = [
                    threading.Thread(target=work, args=(t,))
                    for t in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for t in range(n_threads):
                    for g, w in zip(got[t], want[t]):
                        np.testing.assert_array_equal(g, w)
                # every published slot holds the score a lone kernel computes
                np.testing.assert_array_equal(shared._seen, solo._seen)
                np.testing.assert_array_equal(
                    shared._cache[shared._seen], solo._cache[solo._seen]
                )
        finally:
            sys.setswitchinterval(interval)


@needs_native
class TestShardNodes:
    @pytest.mark.parametrize("scenario", ["single-module", "tie-grid"])
    def test_shard_nodes_validate(self, scenario):
        """Two shard-node processes on the native kernel, through ``repro
        validate``'s fingerprint check (the grid's node axis is NumPy-only)."""
        from repro.validation.runner import BackendCombo, run_scenario
        from repro.validation.scenarios import select_scenarios

        (spec,) = select_scenarios([scenario], smoke=True)
        combos = [
            BackendCombo(1, "native", rng, n_nodes=2) for rng in ("philox", "mrg")
        ]
        result = run_scenario(spec, seed=0, smoke=True, combos=combos)
        assert [c.error for c in result.combos] == [None, None]
        assert all(c.identical for c in result.combos)


# -- grouping tables -----------------------------------------------------------


def _per_row_unique_tables(values):
    """``_build_tables`` as it was: one ``np.unique`` per parent row."""
    item_groups = [np.zeros(0, dtype=np.int64)]
    rows = [np.zeros(0, dtype=np.int64)]
    vals = [np.zeros(0)]
    offset = 0
    for l, row in enumerate(values):
        uvals, inverse = np.unique(row, return_inverse=True)
        item_groups.append(offset + inverse)
        rows.append(np.full(uvals.size, l, dtype=np.int64))
        vals.append(uvals)
        offset += uvals.size
    return (
        np.concatenate(item_groups), np.concatenate(rows), np.concatenate(vals),
        offset,
    )


class TestBuildTables:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_parents=st.integers(0, 6),
        n_obs=st.integers(0, 30),
        levels=st.sampled_from([1, 2, 5, 1000]),
        with_nan=st.booleans(),
    )
    def test_matches_per_row_unique(self, seed, n_parents, n_obs, levels, with_nan):
        rng = np.random.default_rng(seed)
        values = rng.integers(-levels, levels + 1, size=(n_parents, n_obs)) / 2.0
        values[(values == 0.0) & (rng.random(values.shape) < 0.5)] = -0.0
        if with_nan and values.size:
            values[rng.random(values.shape) < 0.2] = np.nan
        kernel = LazySplitKernel(values, np.ones(n_obs), (1.0, 2.0), backend="numpy")
        item_groups, group_row, group_value, n_groups = _per_row_unique_tables(
            kernel.values
        )
        assert kernel.n_groups == n_groups
        np.testing.assert_array_equal(kernel.item_groups, item_groups)
        np.testing.assert_array_equal(kernel.group_row, group_row)
        # equal under ==: a group of signed zeros may be named by either
        np.testing.assert_array_equal(kernel.group_value, group_value)
        assert kernel.item_groups.dtype == kernel.group_row.dtype == np.int64
        for table in (kernel.item_groups, kernel.group_row, kernel.group_value):
            assert table.flags.c_contiguous
        assert kernel._cache.shape == kernel._seen.shape == (2 * n_groups,)


# -- bit identity: grouped stats and the normal-gamma tail -------------------


@needs_native
class TestStatsBitIdentity:
    @staticmethod
    def _numpy_oracle():
        import repro.scoring.normal_gamma as ng

        return mock.patch.object(ng, "_native_kernels", lambda: None)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 40),
        cols=st.integers(0, 20),
        n_groups=st.integers(1, 8),
        scale=st.sampled_from([1.0, 1e8]),
    )
    def test_grouped_property(self, seed, rows, cols, n_groups, scale):
        rng = np.random.default_rng(seed)
        if cols == 0:  # 1-D shape
            vals = rng.normal(size=rows) * scale
            labels = rng.integers(0, n_groups, size=rows)
        else:
            vals = rng.normal(size=(rows, cols)) * scale
            labels = rng.integers(0, n_groups, size=cols)
        native = StatsArrays.grouped(vals, labels, n_groups)
        with self._numpy_oracle():
            oracle = StatsArrays.grouped(vals, labels, n_groups)
        np.testing.assert_array_equal(native.count, oracle.count)
        np.testing.assert_array_equal(native.total, oracle.total)
        np.testing.assert_array_equal(native.sumsq, oracle.sumsq)

    def test_grouped_out_of_range_labels_fall_back(self):
        """Labels beyond n_groups keep np.bincount's widening semantics."""
        vals = np.arange(6, dtype=np.float64)
        labels = np.arange(6)
        stats = StatsArrays.grouped(vals, labels, 3)
        assert len(stats) == 6  # widened, exactly as the NumPy path does

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(1, 600),
        empty_frac=st.sampled_from([0.0, 0.5]),
        lambda0=st.sampled_from([0.1, 1.0]),
        alpha0=st.sampled_from([0.1, 2.5]),
    )
    def test_log_marginal_property(self, seed, size, empty_frac, lambda0, alpha0):
        rng = np.random.default_rng(seed)
        count = rng.integers(0, 50, size=size).astype(np.float64)
        count[rng.random(size) < empty_frac] = 0.0
        total = rng.normal(size=size) * count
        sumsq = total * total / np.maximum(count, 1.0) + np.abs(
            rng.normal(size=size)
        ) * count
        prior = NormalGammaPrior(lambda0=lambda0, alpha0=alpha0)
        native = log_marginal(count, total, sumsq, prior)
        with self._numpy_oracle():
            oracle = log_marginal(count, total, sumsq, prior)
        np.testing.assert_array_equal(native, oracle)

    def test_log_marginal_scalar_path_unchanged(self):
        # Scalars never dispatch to the extension; the vectorized oracle
        # and the pure-math scalar twin stay in close agreement.
        from repro.scoring.normal_gamma import log_marginal_scalar

        got = log_marginal(3.0, 1.5, 2.0)
        assert isinstance(got, float)
        assert got == pytest.approx(log_marginal_scalar(3.0, 1.5, 2.0), rel=1e-12)

    def test_log_marginal_2d_shape_preserved(self):
        rng = np.random.default_rng(0)
        count = rng.integers(0, 9, size=(4, 5)).astype(np.float64)
        total = rng.normal(size=(4, 5)) * count
        sumsq = np.abs(rng.normal(size=(4, 5))) * count + total**2 / np.maximum(count, 1)
        out = log_marginal(count, total, sumsq)
        assert out.shape == (4, 5)
        assert np.all(out[count == 0] == 0.0)


# -- the seen-bitmask cache --------------------------------------------------


class TestSeenBitmask:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_finite_score_cached(self, backend):
        """A NaN score (infinite parent values make a margin row mix inf
        and NaN) must hit the cache on re-lookup — under the old NaN
        sentinel it re-evaluated on every call."""
        values = np.array([[np.inf, -np.inf, 0.0, 1.0]])
        sign = np.array([1.0, -1.0, 1.0, -1.0])
        with np.errstate(all="ignore"):
            kernel = LazySplitKernel(values, sign, (1.0,), backend=backend)
            # The group holding the +inf candidate value scores NaN.
            inf_group = kernel.item_groups[0]
            g = np.array([inf_group], dtype=np.int64)
            b = np.zeros(1, dtype=np.int64)
            first = kernel.scores(g, b)
            evals = kernel.evaluations
            hits = kernel.hits
            second = kernel.scores(g, b)
        assert np.isnan(first[0]) and np.isnan(second[0])
        assert kernel.evaluations == evals  # no re-evaluation
        assert kernel.hits == hits + 1

    def test_zero_score_cached(self):
        """A legitimate exactly-0.0 score must not read as a miss (the
        bitmask, not the cache value, tracks presence)."""
        kernel = LazySplitKernel(np.zeros((1, 1)), np.zeros(1), (1.0,))
        g = np.zeros(1, dtype=np.int64)
        b = np.zeros(1, dtype=np.int64)
        kernel.scores(g, b)
        evals = kernel.evaluations
        kernel.scores(g, b)
        assert kernel.evaluations == evals


# -- counters into WorkTrace -------------------------------------------------


class TestKernelCounters:
    def test_consume_returns_none_when_untouched(self):
        consume_kernel_totals()  # drain whatever earlier tests left behind
        assert consume_kernel_totals() is None

    def test_consume_drains_and_resets(self):
        consume_kernel_totals()
        kernel = split_kernel_from_arrays(
            *_node_arrays(3)[:4], (1.0, 2.0), backend="numpy"
        )
        kernel.scores(
            np.zeros(4, dtype=np.int64), np.array([0, 0, 1, 1], dtype=np.int64)
        )
        totals = consume_kernel_totals()
        assert totals is not None
        assert totals["evaluations"] == kernel.evaluations
        assert totals["hits"] == kernel.hits
        assert totals["peak_chunk_elements"] == kernel.peak_chunk_elements
        assert totals["backends"] == ["numpy"]
        assert consume_kernel_totals() is None

    def test_trace_merge_and_roundtrip(self, tmp_path):
        from repro.parallel.trace import WorkTrace, load_trace, save_trace

        trace = WorkTrace()
        trace.mark_kernel(None)  # a task that scored nothing
        assert trace.kernel_counters == {}
        trace.mark_kernel(
            {"hits": 5, "evaluations": 7, "peak_chunk_elements": 100,
             "backends": ["numpy"]}
        )
        trace.mark_kernel(
            {"hits": 1, "evaluations": 2, "peak_chunk_elements": 50,
             "backends": ["native"]}
        )
        assert trace.kernel_counters == {
            "hits": 6, "evaluations": 9, "peak_chunk_elements": 100,
            "backends": ["native", "numpy"],
        }
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        assert load_trace(path).kernel_counters == trace.kernel_counters

    def test_trace_merge_drops_store_counters(self):
        """Counter deltas from a release that had the shared score store
        merge as their kernel counters alone."""
        from repro.parallel.trace import WorkTrace

        trace = WorkTrace()
        trace.mark_kernel(
            {"hits": 5, "evaluations": 7, "peak_chunk_elements": 100,
             "backends": ["numpy"], "store_hits": 2, "store_misses": 1,
             "store_evictions": 0}
        )
        trace.mark_kernel({"hits": 1, "evaluations": 0, "store_hits": 4})
        assert trace.kernel_counters == {
            "hits": 6, "evaluations": 7, "peak_chunk_elements": 100,
            "backends": ["numpy"],
        }

    def test_serial_learn_records_counters(self):
        from repro.core.learner import LemonTreeLearner
        from repro.data.synthetic import make_module_dataset
        from repro.parallel.trace import WorkTrace

        matrix = make_module_dataset(16, 10, n_modules=2, seed=7).matrix
        config = LearnerConfig(max_sampling_steps=4)
        learner = LemonTreeLearner(config)
        members = learner.consensus(learner.sample_clusterings(matrix, seed=7))
        trace = WorkTrace()
        learner.learn_from_modules(matrix, members, seed=7, trace=trace)
        counters = trace.kernel_counters
        assert counters.get("evaluations", 0) > 0
        assert counters["backends"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_run_scores_into_fresh_memos(self, backend):
        """Nothing a run memoises outlives it: an identical second run
        evaluates every score again, and no counter names a store."""
        from repro.core.learner import LemonTreeLearner
        from repro.data.synthetic import make_module_dataset
        from repro.parallel.trace import WorkTrace

        matrix = make_module_dataset(16, 10, n_modules=2, seed=7).matrix
        config = LearnerConfig(
            max_sampling_steps=4, parallel=ParallelConfig(kernel_backend=backend)
        )
        learner = LemonTreeLearner(config)
        members = learner.consensus(learner.sample_clusterings(matrix, seed=7))
        runs = []
        for _run in range(2):
            trace = WorkTrace()
            network = learner.learn_from_modules(
                matrix, members, seed=7, trace=trace
            ).network
            runs.append((network, trace.kernel_counters))
        (net1, c1), (net2, c2) = runs
        assert net1 == net2
        assert c1["evaluations"] > 0
        assert c2 == c1
        assert c1["backends"] == [backend]
        assert not any(key.startswith("store_") for key in c1)


# -- spawn pool workers ------------------------------------------------------


@pytest.mark.slow
class TestPoolWorkers:
    def _reference(self):
        from repro.core.learner import LemonTreeLearner
        from repro.data.synthetic import make_module_dataset

        matrix = make_module_dataset(24, 12, n_modules=3, seed=42).matrix
        config = LearnerConfig(
            max_sampling_steps=5,
            parallel=ParallelConfig(kernel_backend="numpy"),
        )
        learner = LemonTreeLearner(config)
        members = learner.consensus(learner.sample_clusterings(matrix, seed=5))
        reference = learner.learn_from_modules(matrix, members, seed=5).network
        return matrix, members, reference

    @needs_native
    def test_native_pool_matches_numpy_sequential(self):
        """Spawn workers resolve the native backend from module state (no
        pickled kernels) and the learned network is bit-identical to the
        sequential NumPy run."""
        from repro.core.learner import LemonTreeLearner
        from repro.parallel.trace import WorkTrace

        matrix, members, reference = self._reference()
        trace = WorkTrace()
        cfg = LearnerConfig(
            max_sampling_steps=5,
            parallel=ParallelConfig(n_workers=2, kernel_backend="native"),
        )
        net = LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=5, trace=trace
        ).network
        assert net == reference
        assert "native" in trace.kernel_counters.get("backends", [])
        assert trace.kernel_counters.get("evaluations", 0) > 0

    def test_numpy_pool_records_counters(self):
        from repro.core.learner import LemonTreeLearner
        from repro.parallel.trace import WorkTrace

        matrix, members, reference = self._reference()
        trace = WorkTrace()
        cfg = LearnerConfig(
            max_sampling_steps=5,
            parallel=ParallelConfig(n_workers=2, kernel_backend="numpy"),
        )
        net = LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=5, trace=trace
        ).network
        assert net == reference
        assert trace.kernel_counters.get("backends") == ["numpy"]
        assert trace.kernel_counters.get("evaluations", 0) > 0
