"""Tests for consensus clustering (co-occurrence + spectral)."""

import numpy as np
import pytest

from repro.consensus.cooccurrence import cooccurrence_matrix
from repro.consensus.spectral import (
    _dominant_eigenvector,
    consensus_clusters,
    spectral_clusters,
)


class TestCooccurrence:
    def test_single_sample(self):
        matrix = cooccurrence_matrix([np.array([0, 0, 1])])
        assert matrix[0, 1] == 1.0
        assert matrix[0, 2] == 0.0
        assert matrix[0, 0] == 0.0  # diagonal zeroed

    def test_fraction_over_samples(self):
        samples = [np.array([0, 0, 1]), np.array([0, 1, 1])]
        matrix = cooccurrence_matrix(samples)
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[1, 2] == pytest.approx(0.5)
        assert matrix[0, 2] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        samples = [rng.integers(0, 4, size=20) for _ in range(5)]
        matrix = cooccurrence_matrix(samples)
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_threshold_zeroes_weak_pairs(self):
        samples = [np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([0, 1, 2])]
        matrix = cooccurrence_matrix(samples, threshold=0.5)
        assert matrix[1, 2] == 0.0  # 1/3 < 0.5
        assert matrix[0, 1] == 0.0  # 1/3 < 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cooccurrence_matrix([])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            cooccurrence_matrix([np.array([0, 1]), np.array([0, 1, 2])])

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
            cooccurrence_matrix([np.array(good), np.array(bad)])

    def test_accepts_whole_float_labels(self):
        """Labels read back from JSON may be whole floats."""
        samples = [np.array([0, 1, 1, 0]), np.array([1, 0, 0, 1])]
        as_floats = [s.astype(np.float64) for s in samples]
        np.testing.assert_array_equal(
            cooccurrence_matrix(as_floats), cooccurrence_matrix(samples)
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

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        samples = [rng.integers(0, 3, size=15) for _ in range(4)]
        a = consensus_clusters(samples)
        b = consensus_clusters(samples)
        assert a == b
