"""Multiple recursive generator (MRG) with O(log k) jump-ahead.

The paper's implementation uses TRNG's ``mrg3s``: a multiple recursive
generator with three feedback terms and a Sophie-Germain prime modulus
(Section 4.2).  This module implements the same construction:

    x_n = (a1 * x_{n-1} + a2 * x_{n-2} + a3 * x_{n-3}) mod M

with ``M = 2147483543`` (the largest Sophie-Germain prime below 2^31; both
``M`` and ``2M + 1`` are prime).  Jump-ahead by ``k`` steps is a 3x3 modular
matrix power, costing O(log k) — the mechanism TRNG uses for block-splitting
streams across processors.

The multipliers below are full-period-plausible constants fixed for this
reproduction; they are not TRNG's exact constants (TRNG is not available
offline) and the backend is not certified to TRNG's statistical standards.
It exists to exercise and test the jump-ahead/block-split machinery with a
second, structurally different backend; :class:`repro.rng.philox.PhiloxStream`
is the default for experiments.
"""

from __future__ import annotations

import numpy as np

from repro.rng.philox import checked_index, derive_key

#: Sophie-Germain prime modulus (2*M + 1 is also prime).
MODULUS = 2147483543
_A1 = 1403580
_A2 = 810728
_A3 = 1234567


def _mat_mul(a: list[list[int]], b: list[list[int]], mod: int) -> list[list[int]]:
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) % mod for j in range(3)]
        for i in range(3)
    ]


def _mat_pow(mat: list[list[int]], power: int, mod: int) -> list[list[int]]:
    result = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    base = [row[:] for row in mat]
    while power > 0:
        if power & 1:
            result = _mat_mul(result, base, mod)
        base = _mat_mul(base, base, mod)
        power >>= 1
    return result


_TRANSITION = [[_A1, _A2, _A3], [1, 0, 0], [0, 1, 0]]


class MRGStream:
    """MRG-backed stream with the same interface as ``PhiloxStream``."""

    name = "mrg"

    def __init__(self, seed: int, *path: object, offset: int = 0) -> None:
        # Key derivation shared with the Philox backend keeps child-stream
        # identities consistent across backends.
        self._seed = int(seed)
        self._path = tuple(path)
        key = derive_key(self._seed, *self._path)
        # Non-zero initial state derived from the key.
        s0 = key % (MODULUS - 1) + 1
        s1 = (key >> 21) % (MODULUS - 1) + 1
        s2 = (key >> 42) % (MODULUS - 1) + 1
        self._initial = (s0, s1, s2)
        self._offset = checked_index(offset, "offset")
        self._state = self._state_at(self._offset)

    # -- construction ---------------------------------------------------
    def split(self, *path: object) -> "MRGStream":
        return MRGStream(self._seed, *self._path, *path)

    def clone(self) -> "MRGStream":
        return MRGStream(self._seed, *self._path, offset=self._offset)

    # -- state ----------------------------------------------------------
    @property
    def offset(self) -> int:
        return self._offset

    def _state_at(self, offset: int) -> tuple[int, int, int]:
        mat = _mat_pow(_TRANSITION, offset, MODULUS)
        s = self._initial
        return tuple(
            sum(mat[i][j] * s[j] for j in range(3)) % MODULUS for i in range(3)
        )  # type: ignore[return-value]

    def jump_to(self, offset: int) -> None:
        """Reposition at absolute draw index ``offset`` in O(log offset)."""
        self._offset = checked_index(offset, "offset")
        self._state = self._state_at(self._offset)

    # -- draws ----------------------------------------------------------
    def _step(self, state: tuple[int, int, int]) -> tuple[int, int, int]:
        x0, x1, x2 = state
        nxt = (_A1 * x0 + _A2 * x1 + _A3 * x2) % MODULUS
        return (nxt, x0, x1)

    def next_uniform(self) -> float:
        self._state = self._step(self._state)
        self._offset += 1
        return self._state[0] / MODULUS

    def _run(self, state: tuple[int, int, int], count: int):
        """``count`` uniforms from ``state`` on, and the state they end at."""
        out = np.empty(checked_index(count, "count"), dtype=np.float64)
        for i in range(out.size):
            state = self._step(state)
            out[i] = state[0]
        return out / MODULUS, state

    def next_uniforms(self, count: int) -> np.ndarray:
        out, self._state = self._run(self._state, count)
        self._offset += out.size
        return out

    def block(self, start: int, count: int) -> np.ndarray:
        """Uniforms at absolute indices ``[start, start + count)``.

        Jump-ahead to ``start`` via a modular matrix power, then generate
        ``count`` values; the sequential position is unchanged.
        """
        return self._run(self._state_at(checked_index(start, "start")), count)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MRGStream(seed={self._seed}, path={self._path!r}, "
            f"offset={self._offset})"
        )
