"""Co-occurrence frequencies over an ensemble of clusterings, as pairs."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _sample_pairs(labels: np.ndarray) -> np.ndarray:
    """Keys ``i * n + j`` of the pairs ``i < j`` one sample co-clusters."""
    n = labels.size
    perm = np.argsort(labels, kind="stable")  # by cluster, members ascending
    grouped = labels[perm]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    ends = np.r_[starts[1:], n]
    # The member at sorted position p pairs with positions p+1 .. end-1.
    partners = np.repeat(ends, ends - starts) - np.arange(1, n + 1)
    first = np.repeat(perm, partners)
    run_start = np.cumsum(partners) - partners
    second = np.arange(first.size) - np.repeat(run_start - np.arange(1, n + 1), partners)
    return first * n + perm[second]


def cooccurrence_pairs(
    samples: Sequence[np.ndarray], threshold: float = 0.0
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Thresholded co-occurrence frequencies as ``(n, rows, cols, values)``.

    ``values[k]`` is the fraction of sampled clusterings in which variables
    ``rows[k] < cols[k]`` share a cluster (Section 2.2.2), kept when it is
    at least ``threshold`` (every co-clustered pair when ``threshold`` is
    not positive); pairs are in ascending ``(row, col)`` order.  A value is
    an integer count divided by the number of samples, so it equals the
    dense accumulation ``sum(onehot @ onehot.T) / S`` bit for bit; the
    diagonal and the lower triangle are implied (zero and symmetric).
    Every label must be a non-negative integer: a sample holding another
    value is refused by its index.
    """
    if not samples:
        raise ValueError("need at least one clustering sample")
    n = np.asarray(samples[0]).shape[0]
    keys = []
    for index, raw in enumerate(samples):
        raw = np.asarray(raw)
        if raw.shape != (n,):
            raise ValueError("all samples must label the same variables")
        whole = raw.dtype.kind in "iuf" and np.isfinite(raw).all() and (raw % 1 == 0).all()
        if not whole or (raw < 0).any():
            raise ValueError(f"sample {index} has a label that is not a non-negative integer")
        keys.append(_sample_pairs(raw.astype(np.int64)))
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    values = counts.astype(np.float64) / len(samples)
    if threshold > 0.0:
        kept = values >= threshold
        pairs, values = pairs[kept], values[kept]
    rows, cols = np.divmod(pairs, n)
    return n, rows, cols, values
