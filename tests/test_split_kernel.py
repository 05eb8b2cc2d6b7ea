"""Tests for the lazy-margin split-scoring kernel.

The kernel's contract has three legs:

* **bit identity** — chain and grid-best scores from the kernel equal the
  dense materialized-margins path exactly, including duplicate-value nodes
  and partitioned sub-ranges (the pool/SPMD ``item_indices`` path);
* **memory** — scoring never materializes more than O(P * n_obs) at once,
  proven by scoring a node whose dense margins matrix would blow a hard
  allocation cap;
* **dedup accounting** — duplicate candidate values share one cached score
  table but still consume their own private uniforms, so RNG-lockstep draw
  accounting is untouched;
* **one memo per kernel** — every lookup is a hit or an evaluation, a
  repeated lookup or chain evaluates nothing, and a second kernel over
  the same node starts from an empty memo of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.rng.streams import make_stream
from repro.scoring.kernel import (
    AllocationCapExceeded,
    DenseScoreMemo,
    LazySplitKernel,
    allocation_cap,
    split_kernel_from_arrays,
)
from repro.scoring.split_score import SplitScorer
from repro.trees.splits import margins_from_arrays

BACKENDS = ["numpy"] + (["native"] if _native.load() is not None else [])


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
    def test_chain_matches_dense(self, seed, duplicates):
        data, obs, left_obs, parents = _node_arrays(seed, duplicates=duplicates)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        margins = margins_from_arrays(data, obs, left_obs, parents)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid
        )
        uniforms = _uniform_block(margins.shape[0], scorer.draws_per_item, seed)
        dense = scorer.score_batch(margins, uniforms)
        lazy = scorer.score_batch_kernel(kernel, uniforms)
        for got, want in zip(lazy, dense):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_grid_best_matches_dense(self, duplicates):
        data, obs, left_obs, parents = _node_arrays(7, duplicates=duplicates)
        scorer = SplitScorer(max_steps=3)
        margins = margins_from_arrays(data, obs, left_obs, parents)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid
        )
        dense = scorer.score_grid_best(margins)
        lazy = scorer.score_grid_best_kernel(kernel)
        for got, want in zip(lazy, dense):
            np.testing.assert_array_equal(got, want)

    def test_subrange_item_indices(self):
        """The partitioned backends score [row0, row1) slices against a
        kernel built on a parent sub-slice — exactly this arithmetic."""
        data, obs, left_obs, parents = _node_arrays(11, n_parents=6)
        scorer = SplitScorer(max_steps=5, stop_repeats=2)
        n_obs = obs.size
        margins = margins_from_arrays(data, obs, left_obs, parents)
        n_items = margins.shape[0]
        uniforms = _uniform_block(n_items, scorer.draws_per_item, 11)
        full = scorer.score_batch(margins, uniforms)

        for row0, row1 in [(0, n_items), (3, 17), (n_obs, 3 * n_obs), (5, 6)]:
            l0, l1 = row0 // n_obs, (row1 - 1) // n_obs + 1
            kernel = split_kernel_from_arrays(
                data, obs, left_obs, parents[l0:l1], scorer.beta_grid
            )
            items = np.arange(row0 - l0 * n_obs, row1 - l0 * n_obs)
            part = scorer.score_batch_kernel(
                kernel, uniforms[row0:row1], item_indices=items
            )
            for got, want in zip(part, full):
                np.testing.assert_array_equal(got, want[row0:row1])

    def test_chain_then_grid_best_share_cache(self):
        """score_grid_best_kernel on a chain-warmed kernel reuses cached
        entries and still matches the dense exhaustive search."""
        data, obs, left_obs, parents = _node_arrays(13)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid
        )
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 13)
        scorer.score_batch_kernel(kernel, uniforms)
        evals_after_chain = kernel.evaluations
        dense = scorer.score_grid_best(margins_from_arrays(data, obs, left_obs, parents))
        lazy = scorer.score_grid_best_kernel(kernel)
        for got, want in zip(lazy, dense):
            np.testing.assert_array_equal(got, want)
        # The exhaustive pass only filled in pairs the chain never visited.
        assert kernel.evaluations <= kernel.n_groups * scorer.beta_grid.size
        assert kernel.evaluations > evals_after_chain


class TestDedupAccounting:
    def test_duplicates_share_evaluations_not_draws(self):
        """Duplicate values are scored once per beta, but every item keeps
        consuming its own private uniforms — identical results to dense."""
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
        dense = scorer.score_batch(
            margins_from_arrays(data, obs, left_obs, parents), uniforms
        )
        for got, want in zip(lazy, dense):
            np.testing.assert_array_equal(got, want)


BETA_GRID = (1.0, 5.0, 20.0)


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
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, BETA_GRID, backend=backend
        )
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
    def test_scores_equal_the_dense_memo(self, backend, duplicates):
        """Every ``(group, beta)`` score equals the dense memo's score of
        each candidate in the group, evaluated once per group."""
        data, obs, left_obs, parents = _node_arrays(3, duplicates=duplicates)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, BETA_GRID, backend=backend
        )
        dense = DenseScoreMemo(margins_from_arrays(data, obs, left_obs, parents), BETA_GRID)
        items = np.arange(kernel.n_items, dtype=np.int64)
        for b in range(len(BETA_GRID)):
            beta = np.full(items.size, b, dtype=np.int64)
            np.testing.assert_array_equal(
                kernel.scores(kernel.item_groups, beta), dense.scores(items, beta)
            )
        assert kernel.evaluations == kernel.n_groups * len(BETA_GRID)
        assert dense.evaluations == kernel.n_items * len(BETA_GRID)

    def test_a_repeated_chain_evaluates_nothing(self, backend):
        """A second chain with the same draws reads every score it needs
        from the memo the first one filled."""
        data, obs, left_obs, parents = _node_arrays(19, duplicates=True)
        scorer = SplitScorer(max_steps=6, stop_repeats=2)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid, backend=backend
        )
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
        first = split_kernel_from_arrays(*node, scorer.beta_grid, backend=backend)
        uniforms = _uniform_block(first.n_items, scorer.draws_per_item, 23)
        want = scorer.score_batch_kernel(first, uniforms)
        second = split_kernel_from_arrays(*node, scorer.beta_grid, backend=backend)
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
    def test_dense_margins_blocked_kernel_succeeds(self):
        """Acceptance criterion: score a node whose dense margins matrix
        would exceed a hard allocator cap — the kernel must finish under a
        cap of a few times P * n_obs while the dense path raises."""
        data, obs, left_obs, parents = _node_arrays(23, n_vars=40, n_obs=30, n_parents=10)
        scorer = SplitScorer(max_steps=4, stop_repeats=2)
        n_items = parents.size * obs.size  # 300 candidates
        # Dense margins need n_items * n_obs = 9000 elements.  The kernel's
        # largest guarded allocation is its (n_groups, n_beta) score cache —
        # still linear in P * n_obs — so a cap just above it proves laziness.
        cap = n_items * scorer.beta_grid.size + 4 * n_items
        assert cap < n_items * obs.size
        uniforms = _uniform_block(n_items, scorer.draws_per_item, 23)
        with allocation_cap(cap):
            with pytest.raises(AllocationCapExceeded):
                margins_from_arrays(data, obs, left_obs, parents)
            kernel = split_kernel_from_arrays(
                data, obs, left_obs, parents, scorer.beta_grid
            )
            lazy = scorer.score_batch_kernel(kernel, uniforms)
            assert kernel.peak_chunk_elements <= cap
        dense = scorer.score_batch(
            margins_from_arrays(data, obs, left_obs, parents), uniforms
        )
        for got, want in zip(lazy, dense):
            np.testing.assert_array_equal(got, want)

    def test_cap_restored_on_exit(self):
        with allocation_cap(10):
            with pytest.raises(AllocationCapExceeded):
                LazySplitKernel(np.zeros((4, 4)), np.ones(4), (1.0, 2.0))
        # No cap outside the context manager.
        LazySplitKernel(np.zeros((4, 4)), np.ones(4), (1.0, 2.0))

    def test_chunking_bounds_temporaries(self):
        data, obs, left_obs, parents = _node_arrays(29, n_obs=16, n_parents=8)
        scorer = SplitScorer(max_steps=3)
        kernel = split_kernel_from_arrays(
            data, obs, left_obs, parents, scorer.beta_grid,
            max_chunk_elements=5 * obs.size,
        )
        uniforms = _uniform_block(kernel.n_items, scorer.draws_per_item, 29)
        lazy = scorer.score_batch_kernel(kernel, uniforms)
        assert kernel.peak_chunk_elements <= 5 * obs.size
        dense = scorer.score_batch(
            margins_from_arrays(data, obs, left_obs, parents), uniforms
        )
        for got, want in zip(lazy, dense):
            np.testing.assert_array_equal(got, want)
