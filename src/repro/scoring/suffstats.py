"""Sufficient-statistic triples with add/remove/merge algebra.

Every score in the pipeline is a function of ``(count, sum, sum of squares)``
of some data block.  Keeping these triples incremental is what turns a Gibbs
move from an O(n m) rescore into an O(m) update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior, log_marginal


def _reject_nan_groups(stats: "StatsArrays") -> None:
    """Fail fast when NaN data leaked into grouped sufficient statistics.

    A single NaN poisons its block's total/sumsq and, through the
    incremental add/remove algebra, every score derived from it later; the
    O(n_groups) check here is free next to the O(n) accumulation.
    """
    if np.isnan(stats.total).any():
        raise ValueError(
            "grouped sufficient statistics hit NaN values; impute missing "
            "data before scoring"
        )


@dataclass
class SuffStats:
    """A single block's sufficient statistics."""

    count: float = 0.0
    total: float = 0.0
    sumsq: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> "SuffStats":
        v = np.asarray(values, dtype=np.float64).ravel()
        total = float(v.sum())
        if np.isnan(total):
            raise ValueError(
                "sufficient statistics over NaN values are undefined; "
                "impute missing data before scoring"
            )
        return cls(float(v.size), total, float((v * v).sum()))

    def add(self, other: "SuffStats") -> "SuffStats":
        return SuffStats(
            self.count + other.count,
            self.total + other.total,
            self.sumsq + other.sumsq,
        )

    def remove(self, other: "SuffStats") -> "SuffStats":
        return SuffStats(
            self.count - other.count,
            self.total - other.total,
            self.sumsq - other.sumsq,
        )

    def log_marginal(self, prior: NormalGammaPrior = DEFAULT_PRIOR) -> float:
        return float(log_marginal(self.count, self.total, self.sumsq, prior))


class StatsArrays:
    """Column-parallel sufficient statistics for a set of blocks.

    Stored as three aligned ``float64`` arrays so a whole bank of blocks can
    be scored with one vectorized :func:`log_marginal` call.

    The arrays live in capacity-doubling buffers with a live length, so the
    :meth:`drop`/:meth:`append` pair a Gibbs merge move performs is a shift
    plus a slot write instead of the full ``np.delete``/``np.append``
    reallocation of all three arrays on every move.  ``count``/``total``/
    ``sumsq`` are live-length *views* of the buffers: in-place mutation
    (``stats.count[i] += x``, ``stats.count -= other``) writes straight
    through, and assigning a fresh array (as :meth:`from_arrays` and
    :meth:`grouped` do) adopts it as the new buffer.
    """

    __slots__ = ("_count", "_total", "_sumsq", "_size")

    def __init__(self, size: int) -> None:
        self._size = int(size)
        self._count = np.zeros(size, dtype=np.float64)
        self._total = np.zeros(size, dtype=np.float64)
        self._sumsq = np.zeros(size, dtype=np.float64)

    def _live(self, buf: np.ndarray) -> np.ndarray:
        return buf[: self._size]

    def _assign(self, attr: str, value) -> None:
        buf = getattr(self, attr)
        if (
            isinstance(value, np.ndarray)
            and (value is buf or value.base is buf)
            and value.shape == (self._size,)
        ):
            # Our own live view handed back after an in-place update
            # (``stats.count -= other`` calls the setter with the mutated
            # view): the buffer already holds the result.
            return
        arr = np.ascontiguousarray(value, dtype=np.float64)
        setattr(self, attr, arr)
        self._size = arr.shape[0]

    @property
    def count(self) -> np.ndarray:
        return self._live(self._count)

    @count.setter
    def count(self, value) -> None:
        self._assign("_count", value)

    @property
    def total(self) -> np.ndarray:
        return self._live(self._total)

    @total.setter
    def total(self, value) -> None:
        self._assign("_total", value)

    @property
    def sumsq(self) -> np.ndarray:
        return self._live(self._sumsq)

    @sumsq.setter
    def sumsq(self, value) -> None:
        self._assign("_sumsq", value)

    @property
    def capacity(self) -> int:
        """Allocated slots (>= live length; grows by doubling)."""
        return int(self._count.shape[0])

    @classmethod
    def from_arrays(
        cls, count: np.ndarray, total: np.ndarray, sumsq: np.ndarray
    ) -> "StatsArrays":
        out = cls(0)
        out.count = np.asarray(count, dtype=np.float64)
        out.total = np.asarray(total, dtype=np.float64)
        out.sumsq = np.asarray(sumsq, dtype=np.float64)
        return out

    @classmethod
    def grouped(cls, values: np.ndarray, labels: np.ndarray, n_groups: int) -> "StatsArrays":
        """Per-group stats of ``values`` partitioned by integer ``labels``.

        ``values`` may be 1-D (one row/column) or 2-D with groups taken over
        ``axis=1`` (labels apply to columns and rows are pooled into the same
        block, as in the GaneSH model where a block pools all values of the
        cluster's variables at the cluster's observations).
        """
        vals = np.asarray(values, dtype=np.float64)
        labels = np.asarray(labels)
        out = cls(n_groups)
        if vals.ndim == 1:
            out.count = np.bincount(labels, minlength=n_groups).astype(np.float64)
            out.total = np.bincount(labels, weights=vals, minlength=n_groups)
            out.sumsq = np.bincount(labels, weights=vals * vals, minlength=n_groups)
        elif vals.ndim == 2:
            rows = vals.shape[0]
            out.count = rows * np.bincount(labels, minlength=n_groups).astype(np.float64)
            out.total = np.bincount(
                labels, weights=vals.sum(axis=0), minlength=n_groups
            )
            out.sumsq = np.bincount(
                labels, weights=(vals * vals).sum(axis=0), minlength=n_groups
            )
        else:
            raise ValueError("values must be 1-D or 2-D")
        _reject_nan_groups(out)
        return out

    def __len__(self) -> int:
        return self._size

    def copy(self) -> "StatsArrays":
        return StatsArrays.from_arrays(
            self.count.copy(), self.total.copy(), self.sumsq.copy()
        )

    def block(self, index: int) -> SuffStats:
        return SuffStats(
            float(self.count[index]), float(self.total[index]), float(self.sumsq[index])
        )

    def add_at(self, index: int, stats: SuffStats) -> None:
        self.count[index] += stats.count
        self.total[index] += stats.total
        self.sumsq[index] += stats.sumsq

    def remove_at(self, index: int, stats: SuffStats) -> None:
        self.count[index] -= stats.count
        self.total[index] -= stats.total
        self.sumsq[index] -= stats.sumsq

    def add_arrays(self, other: "StatsArrays") -> None:
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq

    def pooled(self) -> SuffStats:
        return SuffStats(
            float(self.count.sum()), float(self.total.sum()), float(self.sumsq.sum())
        )

    def drop(self, index: int) -> None:
        """Remove one block: an in-buffer shift, no reallocation."""
        s = self._size
        if index < 0:
            index += s
        if not 0 <= index < s:
            raise IndexError(f"index {index} out of bounds for {s} blocks")
        self._count[index : s - 1] = self._count[index + 1 : s]
        self._total[index : s - 1] = self._total[index + 1 : s]
        self._sumsq[index : s - 1] = self._sumsq[index + 1 : s]
        self._size = s - 1

    def _ensure_capacity(self, needed: int) -> None:
        for attr in ("_count", "_total", "_sumsq"):
            buf = getattr(self, attr)
            if buf.shape[0] < needed:
                new = np.zeros(
                    max(4, needed, 2 * buf.shape[0]), dtype=np.float64
                )
                new[: self._size] = buf[: self._size]
                setattr(self, attr, new)

    def reserve(self, capacity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three whole buffers, grown to at least ``capacity`` slots.

        For a native sweep that moves, appends and drops blocks in place;
        it reports the live length it leaves through :meth:`resize`.
        """
        self._ensure_capacity(capacity)
        return self._count, self._total, self._sumsq

    def resize(self, size: int) -> None:
        """Set the live length after the buffers were updated in place."""
        if not 0 <= size <= self.capacity:
            raise ValueError(f"live length {size} outside capacity {self.capacity}")
        self._size = int(size)

    def append(self, stats: SuffStats) -> None:
        """Add one block: a slot write, amortized O(1) via doubling."""
        self._ensure_capacity(self._size + 1)
        s = self._size
        self._count[s] = stats.count
        self._total[s] = stats.total
        self._sumsq[s] = stats.sumsq
        self._size = s + 1

    def log_marginals(self, prior: NormalGammaPrior = DEFAULT_PRIOR) -> np.ndarray:
        return np.asarray(log_marginal(self.count, self.total, self.sumsq, prior))

    def score(self, prior: NormalGammaPrior = DEFAULT_PRIOR) -> float:
        return float(self.log_marginals(prior).sum())
