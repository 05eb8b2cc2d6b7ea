"""Splittable parallel pseudo-random number generation.

The paper (Section 4.2) generates random numbers with the TRNG library: a
multiple recursive generator with three feedback terms and a Sophie-Germain
prime modulus, block-split across MPI ranks so that the block distribution of
the random-number stream matches the block distribution of the work.  This
package provides the same contract with two interchangeable backends:

* :class:`~repro.rng.philox.PhiloxStream` — counter-based (NumPy ``Philox``),
  O(1) jump-ahead via counter ``advance``.
* :class:`~repro.rng.mrg.MRGStream` — a multiple recursive generator with
  three feedback terms and a Sophie-Germain prime modulus, O(log k)
  jump-ahead via modular matrix powers.

On top of the raw streams, :mod:`repro.rng.streams` implements the stream
discipline used throughout the learner:

* :class:`~repro.rng.streams.GibbsRandom` — the *replicated* stream: every
  (simulated) rank holds an identical copy and advances it identically, so
  collective sampling decisions (``Select-Unif-Rand`` / ``Select-Wtd-Rand``
  in Section 3.1) agree on every rank without communication of random bits.
* :class:`~repro.rng.streams.IndexedStream` — random access by global item
  index, used for the per-candidate-split sampling chains so that results do
  not depend on which rank (or process-pool worker) evaluates a split.
"""

from repro.rng.mrg import MRGStream
from repro.rng.philox import DrawSpan, PhiloxStream
from repro.rng.streams import GibbsRandom, IndexedStream, make_stream

__all__ = [
    "MRGStream",
    "PhiloxStream",
    "DrawSpan",
    "GibbsRandom",
    "IndexedStream",
    "make_stream",
]
