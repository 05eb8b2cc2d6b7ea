"""Stream discipline for replicated and block-split randomness.

Two kinds of random decisions occur in the learner (Sections 3.1 and 4.2 of
the paper):

* **Collective decisions** — e.g. picking the variable to reassign
  (``Select-Unif-Rand``) or the Gibbs move among candidate clusters
  (``Select-Wtd-Rand``).  Every rank must arrive at the same answer, so all
  ranks hold identical copies of one *replicated* stream and advance it in
  lockstep.  :class:`GibbsRandom` wraps a stream with the sampling helpers
  used for these decisions.

* **Per-item decisions** — the discrete sampling chain that scores one
  candidate parent split.  Work items are block-distributed across ranks, so
  each item's randomness must be addressable by its *global index*
  independent of which rank computes it.  :class:`IndexedStream` gives each
  item a private, offset-addressed block of draws.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from repro.rng.mrg import MRGStream
from repro.rng.philox import DrawSpan, PhiloxStream, checked_index

Stream = Union[PhiloxStream, MRGStream]

#: Decision quantum: log-scores are snapped to this grid before weighted
#: sampling, so that independently-implemented scorers (vectorized NumPy vs
#: the test suite's pure-Python oracle, which accumulate in different orders) make
#: bit-identical random decisions.  This plays the role of the cross-language
#: PRNG alignment the authors needed between Java Lemon-Tree and their C++
#: code (Section 4.1).
SCORE_QUANTUM = 1e-9


def make_stream(seed: int, *path: object, backend: str = "philox") -> Stream:
    """Create a root stream for ``seed`` with the requested backend."""
    if backend == "philox":
        return PhiloxStream(seed, *path)
    if backend == "mrg":
        return MRGStream(seed, *path)
    raise ValueError(f"unknown RNG backend: {backend!r}")


def quantize_logs(log_weights: Sequence[float]) -> np.ndarray:
    """Snap log-weights to the shared decision grid (see SCORE_QUANTUM)."""
    arr = np.asarray(log_weights, dtype=np.float64)
    # -inf sentinels (zero-probability choices) survive the round trip.
    return np.round(arr / SCORE_QUANTUM) * SCORE_QUANTUM


class ChoiceTable(NamedTuple):
    """A weighted choice's sampling table (:meth:`GibbsRandom.choice_table`)."""

    #: cumulative weights (``None``: no weight is finite, choose uniformly)
    cum: np.ndarray | None
    total: float
    size: int
    #: the indices ``cum`` runs over (``None``: all of ``range(size)``)
    positions: np.ndarray | None = None


class GibbsRandom:
    """Sampling helpers over a replicated stream.

    All methods consume a deterministic number of draws from the underlying
    stream, so implementations that interleave the same sequence of calls
    stay in lockstep regardless of how they compute the weights.
    """

    def __init__(self, stream: Stream) -> None:
        self.stream = stream

    def clone(self) -> "GibbsRandom":
        return GibbsRandom(self.stream.clone())

    @property
    def offset(self) -> int:
        return self.stream.offset

    # -- basic draws ----------------------------------------------------
    def uniform(self) -> float:
        return self.stream.next_uniform()

    def uniforms(self, count: int) -> np.ndarray:
        return self.stream.next_uniforms(count)

    def span(self, count: int) -> DrawSpan:
        """The next ``count`` draws, by address: the stream moves past them
        exactly as :meth:`uniforms` moves it, and a consumer that computes
        draws itself (the native sweeps) never has them generated here."""
        return self.stream.next_span(count)

    def randint(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` — the Select-Unif-Rand oracle."""
        if n <= 0:
            raise ValueError("randint needs a positive range")
        return min(int(self.stream.next_uniform() * n), n - 1)

    def random_labels(self, count: int, n_bins: int) -> np.ndarray:
        """``count`` independent uniform labels in ``[0, n_bins)``.

        Used for the random initializations of variable and observation
        clusters (Algorithm 3, lines 3-5).
        """
        u = self.stream.next_uniforms(count)
        labels = np.minimum((u * n_bins).astype(np.int64), n_bins - 1)
        return labels

    # -- weighted sampling ----------------------------------------------
    @staticmethod
    def choice_table(
        log_weights: Sequence[float],
        positions: np.ndarray | None = None,
        size: int | None = None,
    ) -> ChoiceTable:
        """What :meth:`choose` samples from, built without a draw: the
        log-weights quantized (see :data:`SCORE_QUANTUM`), shifted by their
        finite peak and exponentiated, non-finite ones weighing 0, with
        their total and cumulative sum — or, when no weight is finite, the
        uniform fallback.

        With ``positions`` (ascending indices into a choice over ``size``
        options), ``log_weights`` weigh only those options and every other
        one weighs exactly 0: the table holds the listed entries alone and
        draws what the full-length table would.  Its running sum is the
        full one's at the listed positions (every weight is >= +0.0, and
        adding +0.0 is exact); its total is still summed over the
        full-length vector, so NumPy's pairwise blocking, and hence the
        scaled uniform, are unchanged."""
        logs = quantize_logs(log_weights)
        if logs.size == 0:
            raise ValueError("weighted choice over an empty list")
        n_options = logs.size if positions is None else int(size)
        peak = logs.max()
        if math.isfinite(peak) and math.isfinite(logs.min()):
            # All finite (every Gibbs score vector): no masking needed.
            weights = np.exp(logs - peak)
        else:
            finite = np.isfinite(logs)
            if not finite.any():
                # All options impossible: fall back to uniform (still one draw).
                return ChoiceTable(None, 0.0, n_options)
            peak = logs[finite].max()
            weights = np.exp(np.where(finite, logs - peak, -np.inf))
            weights[~finite] = 0.0
        if positions is None:
            return ChoiceTable(np.cumsum(weights), weights.sum(), n_options)
        full = np.zeros(n_options, dtype=np.float64)
        full[positions] = weights
        return ChoiceTable(np.cumsum(weights), full.sum(), n_options, positions)

    def choose(self, table: ChoiceTable) -> int:
        """Sample an index of ``table``; exactly one uniform is consumed.

        An index past the last cumulative weight (the total and the running
        sum round apart) is the last option."""
        if table.cum is None:
            return self.randint(table.size)
        u = self.stream.next_uniform() * table.total
        idx = int(np.searchsorted(table.cum, u, side="right"))
        if table.positions is None:
            return min(idx, table.size - 1)
        if idx < table.positions.size:
            return int(table.positions[idx])
        return table.size - 1

    def weighted_choice_logs(self, log_weights: Sequence[float]) -> int:
        """Sample an index with probability ∝ exp(log_weights[i]).

        The Select-Wtd-Rand oracle: :meth:`choose` over the
        :meth:`choice_table` of ``log_weights`` (one uniform consumed).
        """
        return self.choose(self.choice_table(log_weights))


class IndexedStream:
    """Random access to per-item blocks of draws.

    Item ``i`` owns draws ``[i * draws_per_item, (i + 1) * draws_per_item)``
    of the underlying counter stream.  Any rank (or process-pool worker) that
    evaluates item ``i`` sees the same randomness, which makes the result of
    the split-scoring phase independent of the work partition — the
    "block-split the PRNG to match the block distribution of work" rule of
    Section 4.2.
    """

    def __init__(self, stream: Stream, draws_per_item: int) -> None:
        if draws_per_item <= 0:
            raise ValueError("draws_per_item must be positive")
        self.stream = stream
        self.draws_per_item = int(draws_per_item)

    def items_span(self, first: int, count: int) -> DrawSpan:
        """The private draws of items ``[first, first + count)`` (``count *
        draws_per_item`` draws, item after item), by address."""
        return self.stream.span(
            checked_index(first, "first") * self.draws_per_item,
            checked_index(count, "count") * self.draws_per_item,
        )

    def spawn(self, *path: object) -> "IndexedStream":
        return IndexedStream(self.stream.split(*path), self.draws_per_item)
