"""Work-partitioning schemes and the load-imbalance study (Section 5.3.1).

The paper contrasts three ways of distributing the candidate-split
computations (Section 3.2.3):

* coarse assignment of whole modules / trees / nodes to processors — simple
  but "sub-optimal because the total number of splits assigned to different
  processors will vary significantly";
* the adopted **flat** scheme — the global candidate list is partitioned
  into ``p`` equal-count contiguous chunks;
* (future work, Section 6) **dynamic** load balancing, modelled here as an
  LPT-style greedy schedule over fine-grained node tasks.

Given the per-split cost vector from a work trace, each scheme yields a
per-rank work distribution from which the makespan and the paper's
imbalance metric ``(max - mean) / mean`` are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.costmodel import block_sums


@dataclass(frozen=True)
class ScheduleResult:
    """Per-rank work of one partitioning scheme."""

    scheme: str
    p: int
    per_rank: np.ndarray

    @property
    def makespan(self) -> float:
        return float(self.per_rank.max()) if self.per_rank.size else 0.0

    @property
    def mean(self) -> float:
        return float(self.per_rank.mean()) if self.per_rank.size else 0.0

    @property
    def imbalance(self) -> float:
        mean = self.mean
        if mean == 0.0:
            return 0.0
        return (self.makespan - mean) / mean


def flat_schedule(split_costs: np.ndarray, p: int) -> ScheduleResult:
    """The paper's scheme: equal-count contiguous blocks of the flat list."""
    return ScheduleResult("flat", p, np.asarray(block_sums(split_costs, p)))


def grouped_schedule(
    split_costs: np.ndarray, group_sizes: np.ndarray, p: int, scheme: str = "per-node"
) -> ScheduleResult:
    """Coarse scheme: whole groups (nodes / trees / modules) round-robined.

    ``group_sizes`` gives the number of consecutive splits per group; group
    ``i`` goes to rank ``i % p`` — the "simple parallelization scheme" the
    paper rejects for its load imbalance.
    """
    split_costs = np.asarray(split_costs, dtype=np.float64)
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    if group_sizes.sum() != split_costs.size:
        raise ValueError("group sizes must cover the cost vector exactly")
    per_rank = np.zeros(p, dtype=np.float64)
    start = 0
    for i, size in enumerate(group_sizes):
        per_rank[i % p] += split_costs[start : start + size].sum()
        start += size
    return ScheduleResult(scheme, p, per_rank)


def lpt_schedule(
    split_costs: np.ndarray, group_sizes: np.ndarray, p: int
) -> ScheduleResult:
    """Longest-processing-time greedy over groups — the dynamic-balancing
    upper bound the paper's future work targets.

    Whole groups (the natural task granularity: one node's splits) are
    assigned largest-first to the least-loaded rank.
    """
    split_costs = np.asarray(split_costs, dtype=np.float64)
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    if group_sizes.sum() != split_costs.size:
        raise ValueError("group sizes must cover the cost vector exactly")
    bounds = np.concatenate([[0], np.cumsum(group_sizes)])
    group_costs = np.array(
        [split_costs[bounds[i] : bounds[i + 1]].sum() for i in range(group_sizes.size)]
    )
    per_rank = np.zeros(p, dtype=np.float64)
    for cost in sorted(group_costs, reverse=True):
        per_rank[np.argmin(per_rank)] += cost
    return ScheduleResult("lpt", p, per_rank)


def chunked_lpt_schedule(
    split_costs: np.ndarray, p: int, chunks_per_rank: int = 8
) -> ScheduleResult:
    """LPT over fine-grained equal-count chunks of the flat list.

    Models the dynamic load balancing the paper proposes in Section 6: the
    flat candidate-split list is cut into ``chunks_per_rank * p`` contiguous
    chunks (the natural work-stealing granule) and chunks are assigned
    largest-first to the least-loaded rank.  Unlike :func:`lpt_schedule`,
    no node is indivisible, so a single huge node cannot dominate the
    makespan.
    """
    split_costs = np.asarray(split_costs, dtype=np.float64)
    from repro.parallel.costmodel import block_sums

    chunk_costs = np.asarray(block_sums(split_costs, max(1, chunks_per_rank * p)))
    per_rank = np.zeros(p, dtype=np.float64)
    for cost in sorted(chunk_costs, reverse=True):
        per_rank[np.argmin(per_rank)] += cost
    return ScheduleResult("chunked-lpt", p, per_rank)


def imbalance_sweep(
    split_costs: np.ndarray, processor_counts: list[int]
) -> dict[int, float]:
    """The Section 5.3.1 measurement: flat-scheme imbalance per ``p``."""
    return {p: flat_schedule(split_costs, p).imbalance for p in processor_counts}
