"""Tests for consensus clustering (co-occurrence + spectral).

The oracle is the dense implementation the pair-count builder and the
component-queue peeling replaced: an ``n x n`` co-occurrence accumulated
from one-hot products, and a peel loop that copies the remaining rows and
columns and labels their components with SciPy on every peel (with the
``max_clusters`` cap applied to isolated variables too).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.consensus.cooccurrence import cooccurrence_pairs
from repro.consensus.spectral import (
    _best_prefix,
    _dominant_eigenvector,
    consensus_clusters,
    spectral_clusters,
)


def cooccurrence_matrix(samples, threshold=0.0):
    """Dense oracle: ``sum(onehot @ onehot.T) / S``, thresholded, no diagonal."""
    n = np.asarray(samples[0]).shape[0]
    accum = np.zeros((n, n), dtype=np.float64)
    for raw in samples:
        labels = np.asarray(raw).astype(np.int64)
        onehot = np.zeros((n, int(labels.max()) + 1), dtype=np.float64)
        onehot[np.arange(n), labels] = 1.0
        accum += onehot @ onehot.T
    accum /= len(samples)
    if threshold > 0.0:
        accum[accum < threshold] = 0.0
    np.fill_diagonal(accum, 0.0)
    return accum


def _oracle_eigenvector(matrix, tol=1e-12, max_iter=2000):
    n = matrix.shape[0]
    vec = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return vec
        nxt /= norm
        if np.abs(nxt - vec).max() < tol:
            return nxt
        vec = nxt
    return vec


def oracle_spectral_clusters(matrix, max_clusters=None):
    """Dense oracle of :func:`spectral_clusters`, peel by peel."""
    matrix = np.asarray(matrix, dtype=np.float64)
    remaining = np.arange(matrix.shape[0])
    clusters = []
    while remaining.size:
        if max_clusters is not None and len(clusters) >= max_clusters - 1:
            clusters.append([int(v) for v in remaining])
            break
        sub = matrix[np.ix_(remaining, remaining)]
        _n_comp, comp_labels = connected_components(sub > 0, directed=False)
        comp = np.flatnonzero(comp_labels == comp_labels[0])
        if comp.size == 1:
            clusters.append([int(remaining[comp[0]])])
            remaining = np.delete(remaining, comp[0])
            continue
        comp_sub = sub[np.ix_(comp, comp)]
        vec = np.abs(_oracle_eigenvector(comp_sub))
        order = np.lexsort((remaining[comp], -vec))
        t = _best_prefix(comp_sub, order)
        clusters.append(sorted(int(v) for v in remaining[comp[order[:t]]]))
        mask = np.ones(remaining.size, dtype=bool)
        mask[comp[order[:t]]] = False
        remaining = remaining[mask]
    clusters.sort(key=lambda c: c[0])
    return clusters


def densify(n, rows, cols, values):
    matrix = np.zeros((n, n))
    matrix[rows, cols] = values
    matrix[cols, rows] = values
    return matrix


def noisy_ensemble(n, seed, n_samples=10, noise=0.1):
    """``n_samples`` labelings of ``n // 20`` clusters, ``noise`` relabelled."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, n // 20, size=n)
    samples = []
    for _ in range(n_samples):
        labels = base.copy()
        moved = rng.random(n) < noise
        labels[moved] = rng.integers(0, n // 20, size=int(moved.sum()))
        samples.append(labels)
    return samples


@st.composite
def ensembles(draw):
    """Small ensembles heavy in ties: repeated samples, and equal-size
    clusters laid out symmetrically."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, 6))
    labelings = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    base = np.arange(n) % k if draw(st.booleans()) else np.array(draw(labelings))
    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        moved = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        labels = base.copy()
        labels[moved] = np.array(draw(labelings))[moved]
        distinct.append(labels)
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=10))
    return [distinct[i] for i in picks]


def pairs_matrix(samples, threshold=0.0):
    return densify(*cooccurrence_pairs(samples, threshold))


thresholds = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))


class TestCooccurrence:
    def test_pairs_are_the_upper_triangle_in_order(self):
        n, rows, cols, values = cooccurrence_pairs([np.array([1, 0, 1, 0, 1])])
        assert n == 5
        assert list(zip(rows, cols)) == [(0, 2), (0, 4), (1, 3), (2, 4)]
        np.testing.assert_array_equal(values, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(samples=ensembles(), threshold=thresholds)
    def test_pairs_equal_the_dense_accumulation_bit_for_bit(self, samples, threshold):
        np.testing.assert_array_equal(
            pairs_matrix(samples, threshold), cooccurrence_matrix(samples, threshold)
        )

    def test_single_sample(self):
        matrix = pairs_matrix([np.array([0, 0, 1])])
        assert matrix[0, 1] == 1.0
        assert matrix[0, 2] == 0.0
        assert matrix[0, 0] == 0.0  # diagonal zeroed

    def test_fraction_over_samples(self):
        samples = [np.array([0, 0, 1]), np.array([0, 1, 1])]
        matrix = pairs_matrix(samples)
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[1, 2] == pytest.approx(0.5)
        assert matrix[0, 2] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        samples = [rng.integers(0, 4, size=20) for _ in range(5)]
        matrix = pairs_matrix(samples)
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_threshold_zeroes_weak_pairs(self):
        samples = [np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([0, 1, 2])]
        matrix = pairs_matrix(samples, threshold=0.5)
        assert matrix[1, 2] == 0.0  # 1/3 < 0.5
        assert matrix[0, 1] == 0.0  # 1/3 < 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pairs_matrix([])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pairs_matrix([np.array([0, 1]), np.array([0, 1, 2])])

    @pytest.mark.parametrize(
        "bad",
        [
            [0, 1, -1, 1],  # would wrap to the last cluster
            [0.7, 1.2, 1.0, 0.0],  # would truncate: 0 with 3, 1 with 2
            [0.0, 1.0, float("nan"), 1.0],
        ],
    )
    def test_rejects_labels_that_are_not_non_negative_integers(self, bad):
        good = [0, 1, 0, 1]
        with pytest.raises(ValueError, match="sample 1 has a label"):
            pairs_matrix([np.array(good), np.array(bad)])

    def test_accepts_whole_float_labels(self):
        """Labels read back from JSON may be whole floats."""
        samples = [np.array([0, 1, 1, 0]), np.array([1, 0, 0, 1])]
        as_floats = [s.astype(np.float64) for s in samples]
        np.testing.assert_array_equal(
            pairs_matrix(as_floats), pairs_matrix(samples)
        )


class TestDominantEigenvector:
    def test_matches_numpy_eig(self):
        rng = np.random.default_rng(1)
        raw = rng.random((8, 8))
        matrix = raw + raw.T  # symmetric
        matrix = np.abs(matrix)
        vec = _dominant_eigenvector(matrix)
        values, vectors = np.linalg.eigh(matrix)
        expected = np.abs(vectors[:, -1])
        np.testing.assert_allclose(np.abs(vec), expected, atol=1e-6)

    def test_zero_matrix(self):
        vec = _dominant_eigenvector(np.zeros((4, 4)))
        assert np.isfinite(vec).all()

    def test_deterministic(self):
        matrix = np.ones((5, 5))
        np.testing.assert_array_equal(
            _dominant_eigenvector(matrix), _dominant_eigenvector(matrix)
        )


class TestSpectralClusters:
    def test_block_diagonal_recovers_blocks(self):
        matrix = np.zeros((6, 6))
        matrix[np.ix_([0, 1, 2], [0, 1, 2])] = 1.0
        matrix[np.ix_([3, 4, 5], [3, 4, 5])] = 1.0
        np.fill_diagonal(matrix, 0.0)
        clusters = spectral_clusters(matrix)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3, 4, 5]]

    def test_isolated_nodes_become_singletons(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = matrix[1, 0] = 1.0
        clusters = spectral_clusters(matrix)
        assert [0, 1] in clusters
        assert [2] in clusters and [3] in clusters

    def test_partition_is_exact(self):
        rng = np.random.default_rng(2)
        raw = rng.random((12, 12))
        matrix = (raw + raw.T) / 2
        np.fill_diagonal(matrix, 0.0)
        clusters = spectral_clusters(matrix)
        flat = sorted(v for c in clusters for v in c)
        assert flat == list(range(12))

    def test_max_clusters_cap(self):
        rng = np.random.default_rng(3)
        raw = rng.random((10, 10))
        matrix = (raw + raw.T) / 2
        np.fill_diagonal(matrix, 0.0)
        clusters = spectral_clusters(matrix, max_clusters=3)
        assert len(clusters) <= 3

    def test_cap_holds_when_nothing_is_connected(self):
        clusters = spectral_clusters(np.zeros((4, 4)), max_clusters=2)
        assert clusters == [[0], [1, 2, 3]]

    def test_cap_holds_over_isolated_variables(self):
        matrix = np.zeros((6, 6))
        matrix[0, 1] = matrix[1, 0] = 1.0
        clusters = spectral_clusters(matrix, max_clusters=3)
        assert clusters == [[0, 1], [2], [3, 4, 5]]
        assert consensus_clusters([np.array([0, 0, 1, 2, 3, 4])], max_clusters=3) == clusters

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 16),
        data=st.data(),
        max_clusters=st.one_of(st.none(), st.integers(1, 17)),
    )
    def test_equals_the_dense_oracle_on_any_affinity(self, n, data, max_clusters):
        """Asymmetric entries, diagonal weight and tied values included."""
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from([0.25, 0.5, 1.0, 3.0])),
            max_size=3 * n,
        ))
        matrix = np.zeros((n, n))
        for i, j, value in cells:
            matrix[i, j] = value
            if data.draw(st.booleans()):
                matrix[j, i] = value
        assert spectral_clusters(matrix, max_clusters=max_clusters) == (
            oracle_spectral_clusters(matrix, max_clusters)
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spectral_clusters(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_clusters(np.zeros((2, 3)))

    def test_modules_sorted_by_smallest_member(self):
        matrix = np.zeros((4, 4))
        matrix[2, 3] = matrix[3, 2] = 1.0
        matrix[0, 1] = matrix[1, 0] = 0.5
        clusters = spectral_clusters(matrix)
        firsts = [c[0] for c in clusters]
        assert firsts == sorted(firsts)


class TestConsensusEnd2End:
    def test_stable_ensemble_recovers_modules(self):
        """If every sample agrees, consensus returns exactly that clustering."""
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        clusters = consensus_clusters([labels] * 5, threshold=0.5)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3, 4], [5, 6, 7]]

    def test_noisy_ensemble_majority_wins(self):
        base = np.array([0, 0, 0, 1, 1, 1])
        noisy = np.array([0, 0, 1, 1, 1, 0])
        clusters = consensus_clusters([base, base, base, noisy], threshold=0.5)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2], [3, 4, 5]]

    @settings(max_examples=300, deadline=None)
    @given(
        samples=ensembles(),
        threshold=thresholds,
        max_clusters=st.one_of(st.none(), st.integers(1, 25)),
    )
    def test_equals_the_dense_oracle(self, samples, threshold, max_clusters):
        expected = oracle_spectral_clusters(
            cooccurrence_matrix(samples, threshold), max_clusters
        )
        assert consensus_clusters(samples, threshold, max_clusters) == expected
        assert spectral_clusters(
            cooccurrence_matrix(samples, threshold), max_clusters=max_clusters
        ) == expected

    def test_equals_the_dense_oracle_on_a_noisy_ensemble(self):
        samples = noisy_ensemble(400, seed=17)
        assert consensus_clusters(samples) == oracle_spectral_clusters(
            cooccurrence_matrix(samples, 0.25)
        )

    @pytest.mark.slow
    def test_cost_is_not_cubic(self):
        """4,000 variables, 200 noisy clusters: on a 2-vCPU Xeon the dense
        peeling took ~22 s, the component queue ~0.1 s."""
        samples = noisy_ensemble(4000, seed=17)
        start = time.perf_counter()
        clusters = consensus_clusters(samples)
        assert time.perf_counter() - start < 5.0
        assert sorted(v for c in clusters for v in c) == list(range(4000))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        samples = [rng.integers(0, 3, size=15) for _ in range(4)]
        a = consensus_clusters(samples)
        b = consensus_clusters(samples)
        assert a == b
