"""Co-occurrence frequency matrix over an ensemble of clusterings."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def cooccurrence_matrix(
    samples: Sequence[np.ndarray], threshold: float = 0.0
) -> np.ndarray:
    """Symmetric ``n x n`` co-occurrence frequency matrix.

    Entry ``(i, j)`` is the fraction of sampled clusterings in which
    variables ``i`` and ``j`` share a cluster (Section 2.2.2).  Entries
    strictly below ``threshold`` are zeroed, as are the diagonal entries
    (self co-occurrence carries no grouping information for the spectral
    step).  Every label must be a non-negative integer: a sample holding
    another value is refused by its index.
    """
    if not samples:
        raise ValueError("need at least one clustering sample")
    first = np.asarray(samples[0])
    n = first.shape[0]
    accum = np.zeros((n, n), dtype=np.float64)
    for index, raw in enumerate(samples):
        raw = np.asarray(raw)
        if raw.shape != (n,):
            raise ValueError("all samples must label the same variables")
        whole = raw.dtype.kind in "iuf" and np.isfinite(raw).all() and (raw % 1 == 0).all()
        if not whole or (raw < 0).any():
            raise ValueError(f"sample {index} has a label that is not a non-negative integer")
        labels = raw.astype(np.int64)
        n_clusters = int(labels.max()) + 1
        onehot = np.zeros((n, n_clusters), dtype=np.float64)
        onehot[np.arange(n), labels] = 1.0
        accum += onehot @ onehot.T
    accum /= len(samples)
    if threshold > 0.0:
        accum[accum < threshold] = 0.0
    np.fill_diagonal(accum, 0.0)
    return accum
