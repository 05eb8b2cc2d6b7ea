"""Spectral consensus clustering (Michoel & Nachtergaele, Phys. Rev. E 2012).

The consensus clusters are extracted from the co-occurrence matrix by
iterative dominant-eigenvector peeling: the Perron vector of the remaining
matrix localizes on the tightest group of co-occurring variables; the group
is cut at the prefix (in decreasing eigenvector weight) that maximizes the
within-group density, removed, and the procedure repeats.  This matches the
role the algorithm plays in Lemon-Tree — turning a fuzzy ensemble into
disjoint consensus modules — with a deterministic implementation (fixed
power-iteration start) so all learners agree bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.consensus.cooccurrence import cooccurrence_matrix


def _dominant_eigenvector(
    matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 2000
) -> np.ndarray:
    """Deterministic power iteration for the Perron (dominant) eigenvector."""
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


def _best_prefix(matrix: np.ndarray, order: np.ndarray) -> int:
    """Prefix length of ``order`` maximizing within-group mean density.

    The density of the top-``t`` set ``S`` is ``sum(A[S, S]) / t`` — the
    indicator-vector relaxation of the Rayleigh quotient the spectral method
    optimizes.  Ties break toward the larger prefix so near-uniform
    eigenvectors produce one cluster rather than a singleton.
    """
    best_t, best_score = 1, -np.inf
    weight = 0.0
    for t in range(1, order.size + 1):
        new = order[t - 1]
        prev = order[: t - 1]
        weight += 2.0 * matrix[new, prev].sum() + matrix[new, new]
        score = weight / t
        if score >= best_score - 1e-12:
            if score > best_score + 1e-12 or t > best_t:
                best_t, best_score = t, score
    return best_t


def spectral_clusters(matrix: np.ndarray, *, max_clusters: int | None = None) -> list[list[int]]:
    """Disjoint clusters from a symmetric non-negative affinity matrix.

    Variables with no remaining affinity become singleton clusters.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("affinity matrix must be square")
    if (matrix < 0).any():
        raise ValueError("affinity matrix must be non-negative")
    n = matrix.shape[0]
    remaining = np.arange(n)
    clusters: list[list[int]] = []
    while remaining.size:
        if max_clusters is not None and len(clusters) >= max_clusters - 1:
            clusters.append([int(v) for v in remaining])
            break
        sub = matrix[np.ix_(remaining, remaining)]
        if sub.max() <= 0.0:
            clusters.extend([[int(v)] for v in remaining])
            break
        # Work within one connected component: after thresholding the
        # co-occurrence matrix is near block-diagonal and disconnected
        # blocks can share the dominant eigenvalue, which would smear the
        # eigenvector across blocks.  The component containing the smallest
        # remaining index is processed first (deterministic).
        from scipy.sparse.csgraph import connected_components

        _n_comp, comp_labels = connected_components(sub > 0, directed=False)
        comp = np.flatnonzero(comp_labels == comp_labels[0])
        if comp.size == 1:
            clusters.append([int(remaining[comp[0]])])
            remaining = np.delete(remaining, comp[0])
            continue
        comp_sub = sub[np.ix_(comp, comp)]
        vec = np.abs(_dominant_eigenvector(comp_sub))
        # Stable order: by decreasing weight, index as tie-break.
        order = np.lexsort((remaining[comp], -vec))
        t = _best_prefix(comp_sub, order)
        chosen = remaining[comp[order[:t]]]
        clusters.append(sorted(int(v) for v in chosen))
        mask = np.ones(remaining.size, dtype=bool)
        mask[comp[order[:t]]] = False
        remaining = remaining[mask]
    # Deterministic module numbering: by smallest member index.
    clusters.sort(key=lambda c: c[0])
    return clusters


def consensus_clusters(
    samples: Sequence[np.ndarray],
    threshold: float = 0.25,
    max_clusters: int | None = None,
) -> list[list[int]]:
    """Full consensus-clustering task: co-occurrence matrix + spectral step."""
    matrix = cooccurrence_matrix(samples, threshold=threshold)
    return spectral_clusters(matrix, max_clusters=max_clusters)
