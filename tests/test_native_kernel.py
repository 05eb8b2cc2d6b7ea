"""Tests for the native-compiled split-scoring backend.

Three contracts:

* **resolution semantics** — ``kernel_backend`` validation on
  :class:`ParallelConfig` and the CLI; ``"native"`` raises when the
  extension is unavailable while ``"auto"`` silently falls back to NumPy
  for *expected* absence (disabled, no cffi, no compiler) and warns once
  only for genuine failures;
* **bit identity** — the native batch entry's chain and grid-best search
  over one node agree with the NumPy kernel's bit for bit, results and
  counters, property-based over random shapes, duplicate-heavy rows, both
  RNG stream backends, extreme magnitudes and an explicit chunk bound;
* **the fused chain** — the native batch entry runs a whole node's
  sampling chain in one call; results and counters equal the NumPy
  chain's (and results the scalar oracle's) on random, tie-grid and
  constant-row nodes, and through ``_score_chunk_run``'s parent blocks;
  a chain on a partly filled NumPy memo returns what a fresh one and the
  batch do.  These run on the NumPy backend alone when the extension is
  absent, pinning the fallback to the scalar oracle;
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

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.scoring.kernel as kernel_mod
from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.rng.streams import make_stream
from repro.scoring.kernel import (
    KERNEL_BACKENDS,
    ChainNode,
    LazySplitKernel,
    resolve_kernel_backend,
    run_chains,
    split_kernel_from_arrays,
    split_sign,
)
from repro.scoring.split_score import SplitScorer
from tests.reference import score_node_scalar

NATIVE = _native.load() is not None
needs_native = pytest.mark.skipif(
    not NATIVE,
    reason=f"native backend unavailable ({_native.availability()['status']})",
)
BACKENDS = ["numpy"] + (["native"] if NATIVE else [])


def _uniform_span(n_items, dpi, seed=0, backend="philox"):
    """The draws of :func:`_uniform_block` as the scorers' callers pass
    them: by address."""
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

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="kernel backend must be one of"):
            resolve_kernel_backend("fortran")

    def test_numpy_never_touches_extension(self):
        name, kernels = resolve_kernel_backend("numpy")
        assert name == "numpy" and kernels is None
        scorer = SplitScorer(kernel_backend="numpy")
        assert (scorer.kernel_backend, scorer.native) == ("numpy", None)

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
            assert SplitScorer(kernel_backend="auto").native is None
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
    def _compare(self, data, obs, left_obs, parents, scorer, span, chunk_elements=None):
        """The NumPy chain and grid search (a kernel each) against one
        batch call each: results and ``(hits, evaluations, peak)``."""

        def kernel():
            return split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid,
                max_chunk_elements=chunk_elements,
            )

        chain_kernel, grid_kernel = kernel(), kernel()
        numpy_chain = scorer.score_batch_kernel(chain_kernel, span)[:3]
        numpy_best = scorer.score_grid_best_kernel(grid_kernel)[:2]
        chain, counted = _whole_node_chain(
            scorer, data, obs, left_obs, parents, span, chunk_elements
        )
        for got, want in zip(chain, numpy_chain):
            np.testing.assert_array_equal(got, want)
        assert counted == _memo_state(chain_kernel)[:3]
        best, counted = _whole_node_grid(scorer, data, obs, left_obs, parents, chunk_elements)
        for got, want in zip(best, numpy_best):
            np.testing.assert_array_equal(got, want)
        assert counted == _memo_state(grid_kernel)[:3]
        return counted

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
        span = _uniform_span(parents.size * obs.size, scorer.draws_per_item, seed, rng_backend)
        self._compare(data, obs, left_obs, parents, scorer, span)

    def test_explicit_chunk_bound_parity(self):
        data, obs, left_obs, parents = _node_arrays(29, n_obs=16, n_parents=8)
        scorer = SplitScorer(max_steps=3)
        span = _uniform_span(parents.size * obs.size, scorer.draws_per_item, 29)
        _hits, _evaluations, peak = self._compare(
            data, obs, left_obs, parents, scorer, span, 5 * obs.size
        )
        assert peak == 5 * obs.size


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


def _whole_node_chain(scorer, data, obs, left_obs, parents, uniforms, chunk_elements=None):
    """One node's chain over all its candidates in one native batch call:
    ``(best_score, steps, best_idx)`` and its ``(hits, evaluations,
    peak_chunk_elements)``."""
    node = ChainNode(np.arange(obs.size), split_sign(obs, left_obs), uniforms)
    *chain, _bounds, (counted,), _traffic = run_chains(
        _native.load(), data[np.ix_(parents, obs)], scorer.beta_grid, [node],
        scorer.max_steps, scorer.stop_repeats, max_chunk_elements=chunk_elements,
    )
    return chain, counted


def _whole_node_grid(scorer, data, obs, left_obs, parents, chunk_elements=None):
    """One node's grid-best search in one native batch call: ``(best_score,
    best_idx)`` and its ``(hits, evaluations, peak_chunk_elements)``."""
    node = ChainNode(np.arange(obs.size), split_sign(obs, left_obs))
    best, _steps, idx, _bounds, (counted,), _traffic = run_chains(
        _native.load(), data[np.ix_(parents, obs)], scorer.beta_grid, [node],
        scorer.max_steps, scorer.stop_repeats, max_chunk_elements=chunk_elements, grid=True,
    )
    return (best, idx), counted


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
    oracles: the scalar chains of ``tests/reference.py`` (values) and the
    NumPy chain over ``LazySplitKernel.scores`` (counters, memo end
    state)."""

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
    def test_property_matches_scalar_and_numpy_chain(
        self, seed, kind, n_obs, n_parents, max_steps, stop_repeats, chunk_rows,
        rng_backend,
    ):
        """... whether the draws arrive as rows or as their span: a span's
        draws (Philox or MRG) are computed inside the native batch call, and
        the NumPy chain materialises it."""
        data, obs, left_obs, parents = _kind_node(kind, seed, 8, n_obs, n_parents)
        scorer = SplitScorer(max_steps=max_steps, stop_repeats=stop_repeats)
        draws = (parents.size * n_obs, scorer.draws_per_item, seed, rng_backend)
        uniforms = _uniform_block(*draws)
        scalar = score_node_scalar(
            scorer, data[parents][:, obs].tolist(), split_sign(obs, left_obs).tolist(),
            uniforms,
        )

        def make():
            return split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid,
                max_chunk_elements=chunk_rows * n_obs,
            )

        oracle = make()
        scorer._run_chain(
            oracle.n_items, n_obs, uniforms,
            lambda rows, beta_idx: oracle.scores(oracle.item_groups[rows], beta_idx),
        )
        span = _uniform_span(*draws)
        for source in (uniforms, span):
            kernel = make()
            chain = scorer.score_batch_kernel(kernel, source)
            for got, want in zip(chain, scalar):
                np.testing.assert_array_equal(got, want)
            _assert_same_memo(_memo_state(kernel), _memo_state(oracle))
        if NATIVE:
            chain, counted = _whole_node_chain(
                scorer, data, obs, left_obs, parents, span, chunk_rows * n_obs
            )
            for got, want in zip(chain, scalar):
                np.testing.assert_array_equal(got, want)
            assert counted == _memo_state(oracle)[:3]

    def test_scorer_does_not_pin_the_kernel(self):
        """The scorer outlives nodes (and, under the daemon's lease, jobs);
        it must not keep the last node's value slice and memo alive."""
        data, obs, left_obs, parents = _node_arrays(5)
        scorer = SplitScorer(max_steps=3)
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, scorer.beta_grid)
        scorer.score_batch_kernel(kernel, _uniform_block(kernel.n_items, scorer.draws_per_item))
        scorer.score_grid_best_kernel(kernel)
        pinned = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert pinned() is None

    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parent_blocks_through_score_chunk_run(self, backend, rng_backend):
        """Split mode scores a block ``[l0, l1)`` of the candidate parents
        of every node as one ``score_nodes`` batch; each node's part equals
        whole-node ``score_node_splits`` (NumPy kernel) at parents ``[l0,
        l1)``, entry for entry — its draws addressed from the module's
        stream at the node's first split plus ``l0 * n_obs``, computed in
        the call (native) or materialised (NumPy)."""
        from repro.datatypes import TreeNode
        from repro.parallel.tasks import _score_chunk_run, build_ctx
        from repro.rng.streams import IndexedStream
        from repro.trees.splits import score_node_splits

        data, obs, left_obs, parents = _kind_node("ties", 17, 12, 11, 6)
        config = LearnerConfig(
            max_sampling_steps=6, sampling_stop_repeats=2, rng_backend=rng_backend
        )
        seed, module_id = 3, 2
        left = np.sort(left_obs)
        nodes = [  # a node and its left child's own split, module obs bases 40 and 51
            TreeNode(0, obs, left=TreeNode(1, left), right=TreeNode(2, np.setdiff1d(obs, left))),
            TreeNode(1, left, left=TreeNode(3, left[:2]), right=TreeNode(4, left[2:])),
        ]
        records = [(module_id, n.observations, n.left.observations, b) for n, b in zip(nodes, (40, 51))]
        ctx = build_ctx(
            data, parents,
            config.with_updates(parallel=ParallelConfig(kernel_backend=backend)), seed,
        )
        assert ctx["scorer"].kernel_backend == backend
        istream = IndexedStream(
            make_stream(seed, "splits", module_id, backend=config.rng_backend),
            ctx["scorer"].draws_per_item,
        )
        wholes = [
            score_node_splits(
                data, module_id, 0, node, parents,
                SplitScorer(max_steps=6, stop_repeats=2, kernel_backend="numpy"), istream,
                base * parents.size,
            )
            for node, (*_rest, base) in zip(nodes, records)
        ]
        for l0, l1 in [(0, parents.size), (0, 1), (1, 4), (4, parents.size), (5, 6)]:
            scores, steps, accepted = _score_chunk_run(ctx, (l0, l1, records, True))
            at = 0
            for whole in wholes:
                rows, size = slice(l0 * whole.n_obs, l1 * whole.n_obs), (l1 - l0) * whole.n_obs
                np.testing.assert_array_equal(scores[at : at + size], whole.log_scores[rows])
                np.testing.assert_array_equal(steps[at : at + size], whole.steps[rows])
                np.testing.assert_array_equal(accepted[at : at + size], whole.accepted[rows])
                at += size
            assert at == scores.size

    def test_chain_on_a_partly_filled_memo(self):
        """A second chain on the same kernel runs against the memo the
        first one left partly filled: it hits where a fresh kernel
        evaluates, and returns the results of a fresh kernel and of the
        native batch, whose memo is always its own."""
        data, obs, left_obs, parents = _kind_node("ties", 31, 10, 13, 4)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        n_items = parents.size * obs.size
        first = _uniform_block(n_items, scorer.draws_per_item, 31)
        second = _uniform_span(n_items, scorer.draws_per_item, 32)

        def kernel():
            return split_kernel_from_arrays(data, obs, left_obs, parents, scorer.beta_grid)

        filled, fresh = kernel(), kernel()
        scorer.score_batch_kernel(filled, first)
        hits, evaluations = filled.hits, filled.evaluations
        got = scorer.score_batch_kernel(filled, second)
        want = scorer.score_batch_kernel(fresh, second)
        assert filled.hits - hits > fresh.hits
        assert filled.evaluations - evaluations < fresh.evaluations
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        if NATIVE:
            chain, counted = _whole_node_chain(scorer, data, obs, left_obs, parents, second)
            for a, b in zip(chain, want):
                np.testing.assert_array_equal(a, b)
            assert counted == _memo_state(fresh)[:3]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_chunk_bound_below_one_row_scores_row_by_row(self, backend):
        """``n_obs > max_chunk_elements``: no chunk is refused; every chain
        evaluates one row at a time, counts a peak of exactly one row, and
        its results are the scalar oracle's."""
        data, obs, left_obs, parents = _node_arrays(41, n_obs=12, n_parents=3)
        scorer = SplitScorer(max_steps=3)

        def kernel():
            return split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid, max_chunk_elements=obs.size - 1
            )

        chain_kernel, grid_kernel = kernel(), kernel()
        uniforms = _uniform_block(chain_kernel.n_items, scorer.draws_per_item, 41)
        scalar = score_node_scalar(
            scorer, data[parents][:, obs].tolist(), split_sign(obs, left_obs).tolist(),
            uniforms,
        )
        chain = scorer.score_batch_kernel(chain_kernel, uniforms)
        best = scorer.score_grid_best_kernel(grid_kernel)[:2]
        for k in (chain_kernel, grid_kernel):
            assert k.evaluations > 0 and k.peak_chunk_elements == obs.size
        if backend == "native":  # the batch's chain and grid search
            span = _uniform_span(chain_kernel.n_items, scorer.draws_per_item, 41)
            chain, counted = _whole_node_chain(
                scorer, data, obs, left_obs, parents, span, obs.size - 1
            )
            assert counted == _memo_state(chain_kernel)[:3]
            got, counted = _whole_node_grid(scorer, data, obs, left_obs, parents, obs.size - 1)
            assert counted == _memo_state(grid_kernel)[:3]
            for a, b in zip(got, best):
                np.testing.assert_array_equal(a, b)
        for got, want in zip(chain, scalar):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("generator", ["philox", "mrg"])
    def test_a_span_of_the_wrong_length_is_refused(self, generator):
        """Both chains refuse draws they cannot use before they score
        anything: a span holds whole rows of exactly draws_per_item, so one
        item short, one draw past the last item and one extra draw per item
        (which a reshape would read shifted) are all refused by count, and
        no counter moves."""
        data, obs, left_obs, parents = _node_arrays(43, n_obs=6, n_parents=2)
        scorer = SplitScorer(max_steps=2)
        node = (scorer, data, obs, left_obs, parents)
        for n_draws in (11 * 5, 12 * 5 + 1, 12 * 6):
            wrong = make_stream(43, "u", backend=generator).span(0, n_draws)
            message = rf"exactly 5 draws for each of 12 items, got {n_draws}"
            kernel = split_kernel_from_arrays(data, obs, left_obs, parents, scorer.beta_grid)
            with pytest.raises(ValueError, match=message):
                scorer.score_batch_kernel(kernel, wrong)
            with pytest.raises(ValueError, match=message):
                scorer.score_batch_kernel(kernel, wrong.array())
            assert kernel.evaluations == kernel.hits == 0
            if NATIVE:
                with pytest.raises(ValueError, match=message):
                    _whole_node_chain(*node, wrong)
        assert scorer.drain_counters() is None


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


def _mrg_reference(key, offset, count, a1=1403580, ahead=0):
    """The MRG of ``rng/mrg.py`` from its definition in Python integers,
    stepped with no matrix power: the seed state from the key, ``offset``
    steps, then ``count`` draws ``x / M``.  ``a1`` and ``ahead`` (draw ``i +
    ahead`` served as draw ``i``) are the two things a wrong port gets
    wrong."""
    m = 2147483543
    x = [key % (m - 1) + 1, (key >> 21) % (m - 1) + 1, (key >> 42) % (m - 1) + 1]
    out = []
    for index in range(offset + ahead + count):
        x = [(a1 * x[0] + 810728 * x[1] + 1234567 * x[2]) % m, x[0], x[1]]
        if index >= offset + ahead:
            out.append(x[0] / m)
    return np.array(out)


def _doctored(kernels, generator, reference):
    """``kernels`` with ``generator``'s draws served by ``reference``."""

    class Doctored:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def uniforms(self, gen, key, offset, count):
            if gen != generator:
                return kernels.uniforms(gen, key, offset, count)
            return reference(key, offset, count)

    return Doctored()


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
        got = _native.load().uniforms("philox", key, offset, count)
        stream = PhiloxStream(key)  # an empty path leaves the seed as the key
        assert stream.key == key
        np.testing.assert_array_equal(got, stream.block(offset, count))

    def test_equals_the_definition(self):
        """... and both equal a third, independent implementation."""
        for key, offset, count in _native._DRAW_CASES["philox"]:
            count = min(count, 12)  # the reference is a Python loop
            np.testing.assert_array_equal(
                _native.load().uniforms("philox", key, offset, count),
                _philox_reference(key, offset, count),
            )

    @pytest.mark.parametrize(
        "doctor", [dict(m0=0xD2E7470EE14C6C92), dict(bias=0)],
        ids=["wrong round constant", "counter bias dropped"],
    )
    def test_doctored_generator_fails_certification_by_name(self, doctor):
        kernels = _native.load()
        assert _native._certify(kernels) is None
        mismatch = _native._certify(
            _doctored(kernels, "philox", lambda *case: _philox_reference(*case, **doctor))
        )
        assert mismatch is not None and mismatch.startswith("draws mismatch at philox")


@needs_native
class TestMRGInKernel:
    """The generator the native entries draw with is ``MRGStream.block``."""

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**21)),
        offset=st.one_of(
            st.integers(0, 100), st.integers(2**32, 2**61), st.integers(2**63, 2**64 - 2**12)
        ),
        count=st.one_of(st.integers(0, 40), st.integers(0, 2000)),
    )
    def test_property_equals_mrg_stream_block(self, key, offset, count):
        from repro.rng.mrg import MRGStream

        got = _native.load().uniforms("mrg", key, offset, count)
        stream = MRGStream(key)  # an empty path leaves the seed as the key
        assert stream.key == key
        np.testing.assert_array_equal(got, stream.block(offset, count))

    def test_equals_the_definition(self):
        """... and both equal a third implementation that steps the
        recurrence, where stepping to the offset is affordable."""
        cases = [c for c in _native._DRAW_CASES["mrg"] if c[1] < 1000]
        for key, offset, count in [*cases, (5, 999, 50), ((1 << 64) - 1, 0, 300)]:
            np.testing.assert_array_equal(
                _native.load().uniforms("mrg", key, offset, count),
                _mrg_reference(key, offset, count),
            )

    @pytest.mark.parametrize(
        "doctor", [dict(ahead=1), dict(a1=1403580 + 1)],
        ids=["one step off", "wrong multiplier"],
    )
    def test_doctored_generator_fails_certification_by_name(self, doctor):
        kernels = _native.load()
        assert _native._certify(kernels) is None
        mismatch = _native._certify(
            _doctored(kernels, "mrg", lambda *case: _mrg_reference(*case, **doctor))
        )
        assert mismatch is not None and mismatch.startswith("draws mismatch at mrg"), mismatch


_WRAPS = [(1, -1, 4), (1, 0, -4), (-1, 0, 4), (1 << 64, 0, 4), (1, (1 << 64) - 4, 4)]


@needs_native
class TestSpansInKernel:
    """Every entry takes its draws as a span, by address, through one check."""

    @pytest.mark.parametrize(
        "generator, key, offset, count",
        [(g, *case) for g in ("philox", "mrg") for case in _WRAPS] + [("lcg", 1, 0, 4)],
    )
    def test_addresses_that_would_wrap_are_refused(self, generator, key, offset, count):
        with pytest.raises(ValueError, match="philox or mrg stream by a 64-bit key"):
            _native.load().uniforms(generator, key, offset, count)

    def test_every_span_goes_in_by_address(self):
        """The one check behind the five entries' draw arguments: a span
        of either generator is (generator tag, key, start); an array, or a
        span of too few draws, is refused."""
        for tag, generator in enumerate(("philox", "mrg")):
            stream = make_stream(3, "a", backend=generator)
            assert _native._address(stream.span(5, 8), 8) == (tag, stream.key, 5)
            with pytest.raises(ValueError, match="span must cover at least 9 draws, got 8"):
                _native._address(stream.span(5, 8), 9)
            with pytest.raises(ValueError, match="span must be a DrawSpan, got ndarray"):
                _native._address(stream.block(5, 8), 8)

    @pytest.mark.parametrize("generator", ["philox", "mrg"])
    def test_a_span_past_the_counter_is_refused_before_c(self, generator):
        """A sweep handed the last draws of the stream: refused, state
        untouched (in C ``offset + i`` would wrap to draw 0)."""
        from repro.ganesh.state import ObsClustering
        from repro.rng.streams import GibbsRandom
        from repro.scoring.normal_gamma import gammaln_table

        block = np.random.default_rng(0).normal(size=(4, 6))
        oc = ObsClustering.from_block(block, np.arange(6) % 2)
        before = oc.labels.copy(), oc.lm.copy()
        stream = make_stream(3, backend=generator)
        stream.jump_to((1 << 64) - 12)
        with pytest.raises(ValueError, match="64-bit key, its draws in"):
            oc.native_sweep(_native.load(), GibbsRandom(stream), gammaln_table(6, rows=4), block)
        np.testing.assert_array_equal(oc.labels, before[0])
        np.testing.assert_array_equal(oc.lm, before[1])


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
        kernel = LazySplitKernel(values, np.ones(n_obs), (1.0, 2.0))
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


# -- the seen-bitmask cache --------------------------------------------------


class TestSeenBitmask:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_finite_score_cached(self, backend):
        """A NaN score (infinite parent values make a margin row mix inf
        and NaN) must hit the cache on re-lookup — under the old NaN
        sentinel it re-evaluated on every call."""
        values = np.array([[np.inf, -np.inf, 0.0, 1.0]])
        sign = np.array([1.0, -1.0, 1.0, -1.0])
        if backend == "native":
            self._batch_caches_non_finite(np.tile(values, 2), np.tile(sign, 2))
            return
        with np.errstate(all="ignore"):
            kernel = LazySplitKernel(values, sign, (1.0,))
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

    @staticmethod
    def _batch_caches_non_finite(values, sign):
        """The batch's memo, every value twice: its chain re-looks NaN keys
        up as hits and its grid search evaluates each once per beta, as
        the NumPy kernel counts them, with the same results (a NaN never
        beats the grid search's -inf start)."""
        scorer = SplitScorer((1.0, 2.0), max_steps=6, stop_repeats=3, kernel_backend="numpy")
        span = _uniform_span(values.size, scorer.draws_per_item, 3)
        with np.errstate(all="ignore"):
            for node_span in (span, None):
                oracle = LazySplitKernel(values, sign, scorer.beta_grid)
                if node_span is None:
                    want = scorer.score_grid_best_kernel(oracle)[:2]
                    assert oracle.evaluations == 2 * oracle.n_groups < 2 * oracle.n_items
                else:
                    want = scorer.score_batch_kernel(oracle, span)[:3]
                    assert np.isnan(want[0]).any() and oracle.hits > 0
                *got, _bounds, (counted,), _traffic = run_chains(
                    _native.load(), values, scorer.beta_grid,
                    [ChainNode(np.arange(sign.size), sign, node_span)],
                    scorer.max_steps, scorer.stop_repeats, grid=node_span is None,
                )
                got = [part for part in got if part is not None]
                assert counted == (oracle.hits, oracle.evaluations, oracle.peak_chunk_elements)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)

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
    def test_drain_returns_none_when_untouched(self):
        assert SplitScorer().drain_counters() is None

    def test_drain_empties_and_resets(self):
        """A scorer counts what its runs cost their kernels, a second run
        of one kernel only its new hits, and a drain empties it."""
        scorer = SplitScorer((1.0, 2.0), kernel_backend="numpy")
        kernel = split_kernel_from_arrays(*_node_arrays(3)[:4], scorer.beta_grid)
        scorer.score_grid_best_kernel(kernel)
        scorer.score_grid_best_kernel(kernel)
        totals = scorer.drain_counters()
        assert totals == {
            "hits": kernel.hits,
            "evaluations": kernel.evaluations,
            "peak_chunk_elements": kernel.peak_chunk_elements,
            "backends": ["numpy"],
        }
        assert (kernel.hits, kernel.evaluations) == (kernel.n_items * 2, kernel.n_groups * 2)
        assert scorer.drain_counters() is None

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
