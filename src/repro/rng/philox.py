"""Counter-based splittable stream built on NumPy's Philox generator.

Philox is a counter-based generator: output ``i`` of a keyed stream is a pure
function of ``(key, i)``, so jumping to an arbitrary offset costs O(1)
(``BitGenerator.advance``).  This is the property the paper relies on for
block-splitting the random stream across processors in O(1) time (Section
4.2, citing Bauke & Mertens).  It also means a consumer that knows the key
can compute a draw where it needs it: a :class:`DrawSpan` is the *address*
of a run of draws, which the native kernels generate themselves and every
other consumer materialises with :meth:`DrawSpan.array`.  The MRG backend
(:mod:`repro.rng.mrg`) shares :class:`KeyedStream`: its draw ``i`` is a
pure function of ``(key, i)`` too, by a matrix power.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_UINT64_MASK = (1 << 64) - 1

#: sequential draws generated per buffer refill: re-seating the stream's
#: generator costs ~2 us (measured; ~14 us the first time, which builds it)
#: whether it yields 1 draw or 256, so ``next_uniform`` amortizes that
#: set-up over a block (8 KB per live stream)
_REFILL = 256


def checked_index(value: int, name: str) -> int:
    """``value`` as a stream position or draw count: an int, not negative."""
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


class DrawSpan:
    """Draws ``[start, start + count)`` of one stream, by address.

    ``generator`` names the stream's generator (its class's ``name``) and
    ``key`` is the stream's key: draw ``i`` is the pure function of ``(key,
    i)`` a consumer may compute for itself — for Philox word ``i % 4`` of
    Philox4x64-10 at counter ``i // 4 + 1``, for MRG the first word of the
    state ``i + 1`` steps past the key's seed state, over ``M`` — which is
    what the stream's ``block`` returns and :meth:`array` materialises.
    """

    __slots__ = ("generator", "key", "start", "count", "stream")

    def __init__(self, stream: "KeyedStream", start: int, count: int) -> None:
        self.generator: str = stream.name
        self.key: int = stream.key
        self.start = checked_index(start, "start")
        self.count = checked_index(count, "count")
        self.stream = stream

    def array(self) -> np.ndarray:
        """The span's uniforms, materialised."""
        return self.stream.block(self.start, self.count)


def derive_key(seed: int, *path: object) -> int:
    """Derive a 64-bit subkey from ``seed`` and a hashable path.

    Distinct paths give statistically independent Philox keys.  The
    derivation is a fixed splitmix64-style mix so it is stable across runs
    and platforms (``hash()`` would be salted).
    """
    z = seed & _UINT64_MASK
    for part in path:
        data = repr(part).encode("utf-8")
        for byte in data:
            z = (z ^ byte) * 0x100000001B3 & _UINT64_MASK
        # splitmix64 finalizer
        z = (z + 0x9E3779B97F4A7C15) & _UINT64_MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _UINT64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _UINT64_MASK
        z = z ^ (z >> 31)
    return z


class KeyedStream:
    """A stream of uniforms in ``[0, 1)`` named by ``(seed, *path)``, whose
    draw ``i`` is a pure function of its 64-bit key and ``i``.

    Supports sequential consumption (``next_uniform``, :meth:`next_uniforms`)
    from a position ``offset`` (draws *consumed*) and random access to a
    block of draws by global offset (``block``), which is what "block
    splitting" a stream means: rank ``k`` of ``p`` obtains the draws its
    work items would have consumed sequentially, without generating the
    preceding ones.  :meth:`span` and :meth:`next_span` hand out the same
    draws by address (:class:`DrawSpan`).  A generator subclasses this with
    its ``name``, ``block`` and ``next_uniform``.
    """

    name = ""

    def __init__(self, seed: int, *path: object, offset: int = 0) -> None:
        self._seed = int(seed)
        self._path = tuple(path)
        self._key = derive_key(self._seed, *self._path)
        self._offset = checked_index(offset, "offset")

    # -- construction ---------------------------------------------------
    def split(self, *path: object) -> "KeyedStream":
        """Return an independent child stream identified by ``path``."""
        return type(self)(self._seed, *self._path, *path)

    def clone(self) -> "KeyedStream":
        return type(self)(self._seed, *self._path, offset=self._offset)

    # -- state ----------------------------------------------------------
    @property
    def key(self) -> int:
        """The 64-bit key: with it, draw ``i`` is computable anywhere."""
        return self._key

    @property
    def offset(self) -> int:
        """Number of uniforms consumed so far (the stream position)."""
        return self._offset

    def jump_to(self, offset: int) -> None:
        """Reposition the stream at absolute draw index ``offset``."""
        self._offset = checked_index(offset, "offset")

    # -- draws ----------------------------------------------------------
    def next_uniforms(self, count: int) -> np.ndarray:
        return self.next_span(count).array()

    def span(self, start: int, count: int) -> DrawSpan:
        """``block(start, count)`` by address: nothing is generated until
        asked."""
        return DrawSpan(self, start, count)

    def next_span(self, count: int) -> DrawSpan:
        """:meth:`next_uniforms` by address: the position moves now, the
        draws are generated by whoever consumes the span."""
        span = DrawSpan(self, self._offset, count)
        self._offset += span.count
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(seed={self._seed}, path={self._path!r}, "
            f"offset={self._offset})"
        )


class PhiloxStream(KeyedStream):
    """A keyed, counter-addressable stream: O(1) random access.

    Draw ``i`` is a pure function of ``(key, i)``, so :meth:`next_uniform`
    serves draws from a block generated ahead of the position; the block is
    addressed by absolute draw index, which keeps ``offset``, ``jump_to``
    and ``clone`` oblivious to it.
    """

    name = "philox"

    def __init__(self, seed: int, *path: object, offset: int = 0) -> None:
        super().__init__(seed, *path, offset=offset)
        #: draws ``[_buf_start, _buf_start + len(_buf))``, generated ahead
        self._buf: list[float] = []
        self._buf_start = 0
        #: this stream's own (generator, its state with a settable counter),
        #: built by the first materialised draw; scratch, not identity:
        #: ``clone`` / ``split`` never share it and it is not pickled
        self._generator: tuple[Generator, dict] | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_generator": None}

    def _draws_at(self, offset: int, count: int) -> np.ndarray:
        # Philox emits 4 x 64-bit words per counter increment and
        # Generator.random consumes one word per double, so draw index
        # ``offset`` lives at counter ``offset // 4``, word ``offset % 4``
        # (Philox increments before it generates: the words come from
        # counter value ``offset // 4 + 1``).  Setting the counter directly
        # is the O(1) jump the paper's block-splitting requires; re-seating
        # the kept generator (counter, emptied word buffer) is the same as
        # building a fresh one, for a seventh of the cost.
        if self._generator is None:
            bit_generator = Philox(key=self._key)
            self._generator = Generator(bit_generator), bit_generator.state
        generator, state = self._generator
        quot, rem = divmod(offset, 4)
        state["state"]["counter"][0] = quot
        generator.bit_generator.state = state
        out = generator.random(rem + count)
        return out[rem:] if rem else out

    def next_uniform(self) -> float:
        pos = self._offset - self._buf_start
        if not 0 <= pos < len(self._buf):
            self._buf = self._draws_at(self._offset, _REFILL).tolist()
            self._buf_start = self._offset
            pos = 0
        self._offset += 1
        return self._buf[pos]

    def block(self, start: int, count: int) -> np.ndarray:
        """Uniforms at absolute indices ``[start, start + count)``.

        Does not move the sequential position; O(1) setup regardless of
        ``start``.
        """
        return self._draws_at(
            checked_index(start, "start"), checked_index(count, "count")
        )
