"""Machine model for the simulated distributed-memory cluster.

Section 3.1 of the paper estimates communication time assuming ``tau``
seconds to set up a message and ``mu`` seconds per word, with tree-based
collectives costing ``(tau + mu * words) * log p``.  The defaults below are
calibrated to the paper's testbed (HDR100 InfiniBand, 100 Gbps, ~2 us MPI
latency); the compute rate is calibrated per run from measured sequential
time (see :func:`repro.parallel.trace.project_time`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """Latency/bandwidth model of the interconnect."""

    #: message setup time (seconds) — MPI latency on HDR100-class fabric
    tau: float = 2.0e-6
    #: time per 8-byte word (seconds) — 100 Gbps = 12.5 GB/s
    mu: float = 6.4e-10

    def __post_init__(self) -> None:
        if self.tau < 0 or self.mu < 0:
            raise ValueError("tau and mu must be non-negative")

    def collective_time(self, words: int, p: int, count: int = 1) -> float:
        """Time for ``count`` tree collectives of ``words`` words on ``p`` ranks."""
        if p <= 1 or count == 0:
            return 0.0
        return count * (self.tau + self.mu * words) * math.log2(p)


#: the default model used by all benchmarks
PHOENIX_LIKE = MachineModel()


def calibrate_from_roundtrips(
    small_rtts: list[float], large_rtts: list[float], large_words: int
) -> MachineModel:
    """Fit (tau, mu) from measured echo round-trips.

    ``small_rtts`` are round-trip times of near-empty echo messages —
    two point-to-point messages of ~0 words, so ``tau = median / 2``.
    ``large_rtts`` carry ``large_words`` 8-byte words each way; the extra
    time over the small echo is pure payload, so
    ``mu = (median_large - median_small) / (2 * large_words)`` (clamped
    non-negative: on a noisy machine the payload cost can measure below
    the jitter).  Medians resist scheduler hiccups better than means.
    """
    if not small_rtts or not large_rtts:
        raise ValueError("need at least one round-trip of each size")
    if large_words <= 0:
        raise ValueError("large_words must be positive")

    def median(values: list[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    small = median(small_rtts)
    large = median(large_rtts)
    tau = max(0.0, small / 2.0)
    mu = max(0.0, (large - small) / (2.0 * large_words))
    return MachineModel(tau=tau, mu=mu)


def block_bounds(n_items: int, p: int) -> list[tuple[int, int]]:
    """Equal-count contiguous block boundaries (Algorithm 5, line 5).

    Item ``i`` belongs to block ``i * p // n_items``-ish; we use the
    standard balanced split where block ``k`` holds items
    ``[k * n // p + min(k, n % p) ...)`` so sizes differ by at most one.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    base, extra = divmod(n_items, p)
    bounds = []
    start = 0
    for k in range(p):
        size = base + (1 if k < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def block_range(n_items: int, p: int, rank: int) -> tuple[int, int]:
    """The half-open item range owned by ``rank`` of ``p``."""
    base, extra = divmod(n_items, p)
    start = rank * base + min(rank, extra)
    size = base + (1 if rank < extra else 0)
    return start, start + size


def max_block_sum(costs, p: int) -> float:
    """Maximum per-block sum of a contiguous equal-count partition.

    The simulated compute time of one superstep: every rank works through
    its block, the step ends when the slowest rank finishes.
    """
    import numpy as np

    costs = np.asarray(costs, dtype=np.float64)
    n = costs.size
    if n == 0:
        return 0.0
    if p >= n:
        return float(costs.max())
    cum = np.concatenate([[0.0], np.cumsum(costs)])
    base, extra = divmod(n, p)
    ranks = np.arange(p)
    starts = ranks * base + np.minimum(ranks, extra)
    ends = starts + base + (ranks < extra)
    return float((cum[ends] - cum[starts]).max())


def block_sums(costs, p: int):
    """All per-block sums of the contiguous equal-count partition."""
    import numpy as np

    costs = np.asarray(costs, dtype=np.float64)
    n = costs.size
    if n == 0:
        return np.zeros(p)
    cum = np.concatenate([[0.0], np.cumsum(costs)])
    base, extra = divmod(n, p)
    ranks = np.arange(p)
    starts = np.minimum(ranks * base + np.minimum(ranks, extra), n)
    ends = np.minimum(starts + base + (ranks < extra), n)
    return cum[ends] - cum[starts]


def load_imbalance(costs, p: int) -> float:
    """The paper's imbalance metric: (max - mean) / mean of per-rank work.

    Section 5.3.1: "the deviation of the maximum run-time of the loop on
    any process from the average run-time ... normalized by the average".
    """
    import numpy as np

    sums = block_sums(costs, p)
    mean = float(np.mean(sums))
    if mean == 0.0:
        return 0.0
    return float((sums.max() - mean) / mean)
