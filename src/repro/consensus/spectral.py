"""Spectral consensus clustering (Michoel & Nachtergaele, Phys. Rev. E 2012).

The consensus clusters are extracted from the co-occurrence matrix by
iterative dominant-eigenvector peeling: the Perron vector of the remaining
matrix localizes on the tightest group of co-occurring variables; the group
is cut at the prefix (in decreasing eigenvector weight) that maximizes the
within-group density, removed, and the procedure repeats.  This matches the
role the algorithm plays in Lemon-Tree — turning a fuzzy ensemble into
disjoint consensus modules — with a deterministic implementation (fixed
power-iteration start) so all learners agree bit-for-bit.

Peeling works one connected component at a time, and the affinities are
held as their positive entries: components are labelled once, and after a
peel only the rest of the peeled component is split again, so the cost
follows the non-zeros and the components' sizes, never ``n**2``.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.consensus.cooccurrence import cooccurrence_pairs


def _dominant_eigenvector(
    matrix: np.ndarray, tol: float = 1e-12, max_iter: int = 2000
) -> np.ndarray:
    """Deterministic power iteration for the Perron (dominant) eigenvector."""
    n = matrix.shape[0]
    vec = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        nxt = matrix @ vec
        norm = math.sqrt(nxt.dot(nxt))  # np.linalg.norm of a 1-D float64
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


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest vertex of each vertex's component; edges ``(u, v)`` undirected.

    Each round hooks every root to the smallest root across its edges and
    then flattens the trees, so no component is walked vertex by vertex.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            return root
        ru, rv = ru[cross], rv[cross]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def _components(members: np.ndarray, roots: np.ndarray) -> list[np.ndarray]:
    """``members`` grouped by ``roots``, groups by smallest member."""
    if not members.size:
        return []
    order = np.argsort(roots, kind="stable")
    return np.split(members[order], np.flatnonzero(np.diff(roots[order])) + 1)


def _peel(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    max_clusters: int | None,
) -> list[list[int]]:
    """Spectral peeling of the ``n x n`` affinity whose positive entries
    are ``values`` at ``(rows, cols)``.

    The component holding the smallest remaining index is peeled next;
    its dense block, in ascending index order, is what the eigenvector and
    the prefix cut read.  Once ``max_clusters - 1`` clusters are out, the
    rest is one cluster.
    """
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    position = np.full(n, -1)

    def block(comp: np.ndarray) -> np.ndarray:
        k = comp.size
        position[comp] = np.arange(k)
        lo, counts = indptr[comp], indptr[comp + 1] - indptr[comp]
        entry = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        row, col = np.repeat(np.arange(k), counts), position[cols[entry]]
        inside = col >= 0
        sub = np.zeros((k, k))
        sub[row[inside], col[inside]] = values[entry[inside]]
        position[comp] = -1
        return sub

    queue = [
        (int(comp[0]), comp)
        for comp in _components(np.arange(n), _component_roots(n, rows, cols))
    ]  # ascending keys: already a heap
    clusters: list[list[int]] = []
    while queue:
        if max_clusters is not None and len(clusters) >= max_clusters - 1:
            rest = np.sort(np.concatenate([comp for _key, comp in queue]))
            clusters.append([int(v) for v in rest])
            break
        _key, comp = heapq.heappop(queue)
        if comp.size == 1:
            clusters.append([int(comp[0])])
            continue
        comp_sub = block(comp)
        vec = np.abs(_dominant_eigenvector(comp_sub))
        # Stable order: by decreasing weight, index as tie-break.
        order = np.lexsort((comp, -vec))
        t = _best_prefix(comp_sub, order)
        clusters.append(sorted(int(v) for v in comp[order[:t]]))
        kept = np.ones(comp.size, dtype=bool)
        kept[order[:t]] = False
        left = np.flatnonzero(kept)
        u, v = np.nonzero(comp_sub[np.ix_(left, left)] > 0)
        for piece in _components(comp[left], _component_roots(left.size, u, v)):
            heapq.heappush(queue, (int(piece[0]), piece))
    # Deterministic module numbering: by smallest member index.
    clusters.sort(key=lambda c: c[0])
    return clusters


def spectral_clusters(matrix: np.ndarray, *, max_clusters: int | None = None) -> list[list[int]]:
    """Disjoint clusters from a symmetric non-negative affinity matrix.

    Variables with no remaining affinity become singleton clusters, and
    at most ``max_clusters`` clusters are returned.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("affinity matrix must be square")
    if (matrix < 0).any():
        raise ValueError("affinity matrix must be non-negative")
    rows, cols = np.nonzero(matrix > 0)
    return _peel(matrix.shape[0], rows, cols, matrix[rows, cols], max_clusters)


def consensus_clusters(
    samples: Sequence[np.ndarray],
    threshold: float = 0.25,
    max_clusters: int | None = None,
) -> list[list[int]]:
    """Full consensus-clustering task: co-occurrence pairs + spectral step."""
    n, rows, cols, values = cooccurrence_pairs(samples, threshold=threshold)
    return _peel(
        n, np.r_[rows, cols], np.r_[cols, rows], np.r_[values, values], max_clusters
    )
