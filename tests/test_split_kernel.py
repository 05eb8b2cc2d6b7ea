"""Tests for the lazy-margin split-scoring kernel.

The kernel's contract has three legs:

* **scalar identity** — chain and grid-best scores from the kernel equal the
  scalar oracle's (``tests/reference.py``) item for item, including
  duplicate-value nodes;
* **memory** — scoring never materializes more than one bounded chunk of
  margins at once (``peak_chunk_elements``), never the ``(P * n_obs,
  n_obs)`` margins matrix;
* **dedup accounting** — duplicate candidate values share one cached score
  table but still consume their own private uniforms, so RNG-lockstep draw
  accounting is untouched;
* **one memo per kernel** — every lookup is a hit or an evaluation, a
  repeated lookup or chain evaluates nothing, and a second kernel over
  the same node starts from an empty memo of its own; the native batch
  entry, whose memo is each call's own, counts what the NumPy kernel
  does, one call like the next;
* **chunk size is not a result** — a ``learn()`` under any
  ``CHUNK_ELEMENTS`` builds the same network with the same counts, only
  in smaller temporaries.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.rng.streams import IndexedStream, make_stream
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.parallel.trace import WorkTrace
from repro.scoring import kernel as kernel_mod
from repro.scoring.kernel import ChainNode, run_chains, split_kernel_from_arrays, split_sign
from repro.scoring.split_score import SplitScorer
from repro.validation.metrics import network_fingerprint
from tests.reference import _score_scalar, grid_best_one, score_node_scalar, split_margins

#: the available backends: NumPy's lazy kernel, the native batch entry
BACKENDS = ["numpy"] + (["native"] if _native.load() else [])


def _uniform_block(n_items, dpi, seed=0):
    return make_stream(seed, "u").block(0, n_items * dpi).reshape(n_items, dpi)


def _node_arrays(seed, n_vars=20, n_obs=14, n_parents=5, duplicates=False):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_vars, n_obs))
    if duplicates:
        # Quantize hard so many candidate split values collide per parent.
        data = np.round(data)
    obs = np.arange(n_obs, dtype=np.int64)
    left_obs = rng.choice(obs, size=n_obs // 2, replace=False)
    parents = rng.choice(n_vars, size=n_parents, replace=False).astype(np.int64)
    return data, obs, left_obs, parents


def _scalar_chain(scorer, data, obs, left_obs, parents, uniforms):
    """The node's chains by the scalar oracle."""
    return score_node_scalar(
        scorer, data[parents][:, obs].tolist(), split_sign(obs, left_obs).tolist(), uniforms
    )


def _candidate_margins(data, obs, left_obs, parents):
    """Every candidate's margins, in the kernel's candidate order."""
    sign = split_sign(obs, left_obs).tolist()
    return [split_margins(row, sign, v) for row in data[parents][:, obs].tolist() for v in row]


def _scalar_grid_best(scorer, data, obs, left_obs, parents):
    best = [grid_best_one(scorer, m) for m in _candidate_margins(data, obs, left_obs, parents)]
    return tuple(np.array(field) for field in zip(*best))


class TestKernelConstruction:
    def test_groups_cover_all_items(self):
        data, obs, left_obs, parents = _node_arrays(0)
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, (1.0, 2.0))
        assert kernel.n_items == parents.size * obs.size
        assert kernel.item_groups.shape == (kernel.n_items,)
        assert kernel.n_groups <= kernel.n_items
        assert (kernel.item_groups >= 0).all()
        assert (kernel.item_groups < kernel.n_groups).all()

    def test_duplicates_collapse_groups(self):
        data, obs, left_obs, parents = _node_arrays(1, duplicates=True)
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, (1.0, 2.0))
        assert kernel.n_groups < kernel.n_items

    def test_group_maps_to_own_value(self):
        data, obs, left_obs, parents = _node_arrays(2, duplicates=True)
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, (1.0,))
        values = data[parents][:, obs]
        for item in range(kernel.n_items):
            g = kernel.item_groups[item]
            assert kernel.group_row[g] == item // obs.size
            assert kernel.group_value[g] == values[item // obs.size, item % obs.size]

    def test_mismatched_grid_rejected(self):
        data, obs, left_obs, parents = _node_arrays(3)
        scorer = SplitScorer(max_steps=2)
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, (1.0, 2.0))
        with pytest.raises(ValueError):
            scorer.score_batch_kernel(
                kernel, _uniform_block(kernel.n_items, scorer.draws_per_item)
            )


class TestBitIdentity:
    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_chain_matches_scalar(self, seed, duplicates):
        data, obs, left_obs, parents = _node_arrays(seed, duplicates=duplicates)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid
        )
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, seed)
        scalar = _scalar_chain(scorer, data, obs, left_obs, parents, uniforms)
        lazy = scorer.score_batch_kernel(kernel, uniforms)
        for got, want in zip(lazy, scalar):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_grid_best_matches_scalar(self, duplicates):
        data, obs, left_obs, parents = _node_arrays(7, duplicates=duplicates)
        scorer = SplitScorer(max_steps=3)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid
        )
        scalar = _scalar_grid_best(scorer, data, obs, left_obs, parents)
        lazy = scorer.score_grid_best_kernel(kernel)
        for got, want in zip(lazy, scalar):
            np.testing.assert_array_equal(got, want)

    def test_chain_then_grid_best_share_cache(self):
        """score_grid_best_kernel on a chain-warmed kernel reuses cached
        entries and still matches the scalar exhaustive search."""
        data, obs, left_obs, parents = _node_arrays(13)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid
        )
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 13)
        scorer.score_batch_kernel(kernel, uniforms)
        evals_after_chain = kernel.evaluations
        scalar = _scalar_grid_best(scorer, data, obs, left_obs, parents)
        lazy = scorer.score_grid_best_kernel(kernel)
        for got, want in zip(lazy, scalar):
            np.testing.assert_array_equal(got, want)
        # The exhaustive pass only filled in pairs the chain never visited.
        assert kernel.evaluations <= kernel.n_groups * scorer.beta_grid.size
        assert kernel.evaluations > evals_after_chain


class TestDedupAccounting:
    def test_duplicates_share_evaluations_not_draws(self):
        """Duplicate values are scored once per beta, but every item keeps
        consuming its own private uniforms — identical results to the
        scalar oracle, which shares nothing."""
        data, obs, left_obs, parents = _node_arrays(17, duplicates=True)
        scorer = SplitScorer(max_steps=8, stop_repeats=3)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid
        )
        assert kernel.n_groups < kernel.n_items
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 17)
        lazy = scorer.score_batch_kernel(kernel, uniforms)
        # Two items with equal (parent, value) can still walk different
        # chains (different uniforms): steps may differ even though their
        # score tables are shared.
        assert kernel.evaluations <= kernel.n_groups * scorer.beta_grid.size
        scalar = _scalar_chain(scorer, data, obs, left_obs, parents, uniforms)
        for got, want in zip(lazy, scalar):
            np.testing.assert_array_equal(got, want)


BETA_GRID = (1.0, 5.0, 20.0)


def _batch(node, scorer, span=None, chunk_elements=None, beta_grid=None):
    """One node as one native batch call — its chain with ``span``, its
    grid-best search without, on ``scorer``'s beta grid unless given one:
    results (``None`` where not computed) and ``(hits, evaluations,
    peak_chunk_elements)``."""
    data, obs, left_obs, parents = node
    *results, _bounds, (counted,), _traffic = run_chains(
        _native.load(), data[np.ix_(parents, obs)],
        scorer.beta_grid if beta_grid is None else np.array(beta_grid),
        [ChainNode(np.arange(obs.size), split_sign(obs, left_obs), span)],
        scorer.max_steps, scorer.stop_repeats, max_chunk_elements=chunk_elements,
        grid=span is None,
    )
    return results, counted


def _assert_batches_count_as_kernels(node, scorer, span):
    """A chain and a grid batch on ``node`` return and count what a fresh
    NumPy kernel each does, and again on a second call: nothing one
    call memoises reaches the next."""
    for node_span in (span, None):
        kernel = split_kernel_from_arrays(*node, scorer.beta_grid)
        want = (
            scorer.score_grid_best_kernel(kernel)[:2] if node_span is None
            else scorer.score_batch_kernel(kernel, node_span)[:3]
        )
        for _call in range(2):
            got, counted = _batch(node, scorer, node_span)
            assert counted == (kernel.hits, kernel.evaluations, kernel.peak_chunk_elements)
            for a, b in zip([part for part in got if part is not None], want):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMemoContract:
    @given(st.integers(0, 2**16), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_lookups_are_hits_or_evaluations(self, backend, seed, n_lookups):
        """A looked-up pair the memo has seen is a hit; the distinct unseen
        pairs of a batch are evaluated once each; a repeated batch is all
        hits."""
        rng = np.random.default_rng(seed)
        data, obs, left_obs, parents = _node_arrays(seed % 7, duplicates=bool(seed % 2))
        if backend == "native":
            scorer = SplitScorer(BETA_GRID, max_steps=1 + n_lookups % 8, stop_repeats=2)
            span = IndexedStream(make_stream(seed, "u"), scorer.draws_per_item).items_span(
                0, parents.size * obs.size
            )
            _assert_batches_count_as_kernels((data, obs, left_obs, parents), scorer, span)
            return
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, BETA_GRID)
        seen: set[int] = set()
        for _batch in range(2):
            groups = rng.integers(0, kernel.n_groups, size=n_lookups)
            beta = rng.integers(0, len(BETA_GRID), size=n_lookups)
            keys = groups * len(BETA_GRID) + beta
            hits, evaluations = kernel.hits, kernel.evaluations
            kernel.scores(groups, beta)
            assert kernel.hits - hits == sum(int(k) in seen for k in keys)
            assert kernel.evaluations - evaluations == len(set(keys.tolist()) - seen)
            seen.update(keys.tolist())
            evaluations = kernel.evaluations
            kernel.scores(groups, beta)
            assert kernel.evaluations == evaluations
        assert kernel.hits + kernel.evaluations <= 4 * n_lookups

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_scores_equal_the_scalar_scores(self, backend, duplicates):
        """Every ``(group, beta)`` score equals the scalar score of each
        candidate in the group, evaluated once per group."""
        node = data, obs, left_obs, parents = _node_arrays(3, duplicates=duplicates)
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, BETA_GRID)
        margins = _candidate_margins(data, obs, left_obs, parents)
        for b, grid_beta in enumerate(BETA_GRID):
            want = [_score_scalar(m, grid_beta) for m in margins]
            if backend == "native":  # a grid of one point twice: its score, at index 0
                (best, _steps, idx), counted = _batch(
                    node, SplitScorer(), beta_grid=(grid_beta, grid_beta)
                )
                np.testing.assert_array_equal(best, want)
                assert not idx.any() and counted[:2] == (0, 2 * kernel.n_groups)
                continue
            beta = np.full(kernel.n_items, b, dtype=np.int64)
            np.testing.assert_array_equal(kernel.scores(kernel.item_groups, beta), want)
        if backend == "numpy":
            assert kernel.evaluations == kernel.n_groups * len(BETA_GRID)

    def test_a_repeated_chain_evaluates_nothing(self, backend):
        """A second chain with the same draws reads every score it needs
        from the memo the first one filled."""
        data, obs, left_obs, parents = _node_arrays(19, duplicates=True)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        kernel = split_kernel_from_arrays(data, obs, left_obs, parents, scorer.beta_grid)
        if backend == "native":  # each batch call evaluates into its own memo
            span = make_stream(19, "u").span(0, kernel.n_items * scorer.draws_per_item)
            _assert_batches_count_as_kernels((data, obs, left_obs, parents), scorer, span)
            return
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 19)
        first = scorer.score_batch_kernel(kernel, uniforms)
        hits, evaluations = kernel.hits, kernel.evaluations
        assert evaluations > 0
        again = scorer.score_batch_kernel(kernel, uniforms)
        assert kernel.evaluations == evaluations
        assert kernel.hits - hits >= hits + evaluations
        for got, want in zip(again, first):
            np.testing.assert_array_equal(got, want)

    def test_each_kernel_starts_from_its_own_memo(self, backend):
        """Two kernels over one node share no memo: the second evaluates
        what the first did and ends in the same state."""
        node = _node_arrays(23, duplicates=True)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        first = split_kernel_from_arrays(*node, scorer.beta_grid)
        if backend == "native":  # a batch call starts from an empty memo of its own
            span = make_stream(23, "u").span(0, first.n_items * scorer.draws_per_item)
            _assert_batches_count_as_kernels(node, scorer, span)
            return
        uniforms = _uniform_block(first.n_items, scorer.draws_per_item, 23)
        want = scorer.score_batch_kernel(first, uniforms)
        second = split_kernel_from_arrays(*node, scorer.beta_grid)
        assert not second._seen.any()
        assert not np.shares_memory(second._cache, first._cache)
        assert not np.shares_memory(second._seen, first._seen)
        got = scorer.score_batch_kernel(second, uniforms)
        assert (second.hits, second.evaluations) == (first.hits, first.evaluations)
        np.testing.assert_array_equal(second._seen, first._seen)
        np.testing.assert_array_equal(second._cache, first._cache)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestMemoryContract:
    def test_chunking_bounds_temporaries(self):
        data, obs, left_obs, parents = _node_arrays(29, n_obs=16, n_parents=8)
        scorer = SplitScorer(max_steps=3)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid,
            max_chunk_elements=5 * obs.size,
        )
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 29)
        lazy = scorer.score_batch_kernel(kernel, uniforms)
        # five rows of margins at a time, never the node's whole matrix
        assert kernel.peak_chunk_elements <= 5 * obs.size < kernel.n_items * obs.size
        scalar = _scalar_chain(scorer, data, obs, left_obs, parents, uniforms)
        for got, want in zip(lazy, scalar):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scoring_never_allocates_the_margins_matrix(self, backend):
        """What ``peak_chunk_elements`` claims, measured: the traced peak of
        a node's chain and exhaustive search stays far below its ``(P *
        n_obs, n_obs)`` margins matrix, which is never built."""
        data, obs, left_obs, parents = _node_arrays(23, n_vars=40, n_obs=300, n_parents=10)
        scorer = SplitScorer(max_steps=4, stop_repeats=2)
        n_items = parents.size * obs.size
        uniforms = _uniform_block(n_items, scorer.draws_per_item, 23)
        margins_bytes = n_items * obs.size * 8
        node = data, obs, left_obs, parents
        span = make_stream(23, "u").span(0, n_items * scorer.draws_per_item)
        tracemalloc.start()
        try:
            if backend == "native":  # the batch's chain, then its grid search
                _batch(node, scorer, span, 8 * obs.size)
                _results, (_hits, evaluations, chunk_peak) = _batch(
                    node, scorer, None, 8 * obs.size
                )
            else:
                kernel = split_kernel_from_arrays(
                    *node, scorer.beta_grid, max_chunk_elements=8 * obs.size
                )
                scorer.score_batch_kernel(kernel, uniforms)
                scorer.score_grid_best_kernel(kernel)
                evaluations, chunk_peak = kernel.evaluations, kernel.peak_chunk_elements
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_groups = split_kernel_from_arrays(*node, scorer.beta_grid).n_groups
        assert evaluations == n_groups * scorer.beta_grid.size
        assert chunk_peak == 8 * obs.size
        assert peak < margins_bytes // 8

    def test_the_chunk_bound_is_per_kernel(self):
        """A kernel's bound is its own: kernels with different bounds
        scored in turn in one process each chunk by theirs."""
        data, obs, left_obs, parents = _node_arrays(31, n_obs=16, n_parents=8)
        scorer = SplitScorer(max_steps=3)
        uniforms = _uniform_block(parents.size * obs.size, scorer.draws_per_item, 31)
        kernels = [
            split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid, max_chunk_elements=bound
            )
            for bound in (obs.size, None, 3 * obs.size)
        ]
        results = [scorer.score_batch_kernel(kernel, uniforms) for kernel in kernels]
        peaks = [kernel.peak_chunk_elements for kernel in kernels]
        assert peaks[0] == obs.size and peaks[2] == 3 * obs.size < peaks[1]
        assert kernels[1].max_chunk_elements == kernel_mod.CHUNK_ELEMENTS
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                np.testing.assert_array_equal(got, want)


def _traced_learn(matrix):
    """A NumPy-kernel ``learn_from_modules`` on one worker: its network's
    fingerprint and its kernel counters."""
    config = LearnerConfig(
        max_sampling_steps=4, parallel=ParallelConfig(kernel_backend="numpy")
    )
    members = [list(range(lo, lo + 8)) for lo in range(0, 24, 8)]
    trace = WorkTrace()
    result = LemonTreeLearner(config).learn_from_modules(
        matrix, members, seed=9, trace=trace
    )
    return network_fingerprint(result.network), trace.kernel_counters


class TestChunkSizeChangesNoBit:
    """Rows are evaluated independently, so the chunk size bounds the
    temporaries and nothing else (docs/ALGORITHMS.md §11): that is why it
    is one constant and not a per-machine setting."""

    @pytest.mark.parametrize("chunk_elements", [1, 25, 100])
    def test_learn_is_chunk_size_free(self, tiny_matrix, monkeypatch, chunk_elements):
        fingerprint, counters = _traced_learn(tiny_matrix)
        assert counters["peak_chunk_elements"] <= kernel_mod.CHUNK_ELEMENTS
        monkeypatch.setattr(kernel_mod, "CHUNK_ELEMENTS", chunk_elements)
        chunked_fingerprint, chunked = _traced_learn(tiny_matrix)
        assert chunked_fingerprint == fingerprint
        assert chunked["hits"] == counters["hits"]
        assert chunked["evaluations"] == counters["evaluations"] > 0
        # one row of a node's universe at least, otherwise the bound
        assert chunked["peak_chunk_elements"] <= max(chunk_elements, tiny_matrix.n_obs)
        assert chunked["peak_chunk_elements"] < counters["peak_chunk_elements"]
