"""Tests for the multiple recursive generator backend."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng.mrg import MODULUS, MRGStream, _mat_pow, _TRANSITION


class TestModulus:
    def test_sophie_germain(self):
        """Both M and 2M+1 must be prime (the paper's TRNG mrg3s family)."""

        def is_prime(n: int) -> bool:
            if n < 2:
                return False
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                if n % p == 0:
                    return n == p
            d, r = n - 1, 0
            while d % 2 == 0:
                d //= 2
                r += 1
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                x = pow(a, d, n)
                if x in (1, n - 1):
                    continue
                for _ in range(r - 1):
                    x = x * x % n
                    if x == n - 1:
                        break
                else:
                    return False
            return True

        assert is_prime(MODULUS)
        assert is_prime(2 * MODULUS + 1)


class TestMatrixPower:
    def test_identity(self):
        assert _mat_pow(_TRANSITION, 0, MODULUS) == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_power_one(self):
        assert _mat_pow(_TRANSITION, 1, MODULUS) == _TRANSITION

    @given(st.integers(0, 10000))
    @settings(max_examples=25, deadline=None)
    def test_power_additivity(self, k):
        from repro.rng.mrg import _mat_mul

        a = _mat_pow(_TRANSITION, k, MODULUS)
        b = _mat_pow(_TRANSITION, k + 3, MODULUS)
        assert _mat_mul(a, _mat_pow(_TRANSITION, 3, MODULUS), MODULUS) == b


class TestMRGStream:
    def test_uniform_range(self):
        draws = MRGStream(1).next_uniforms(2000)
        assert (draws >= 0).all() and (draws < 1).all()
        assert abs(draws.mean() - 0.5) < 0.05

    def test_deterministic(self):
        a = MRGStream(3, "p").next_uniforms(32)
        b = MRGStream(3, "p").next_uniforms(32)
        np.testing.assert_array_equal(a, b)

    @given(start=st.integers(0, 300), count=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_jump_ahead_matches_sequential(self, start, count):
        """O(log k) matrix jump must land exactly where stepping would."""
        reference = MRGStream(17, "j").next_uniforms(start + count)
        block = MRGStream(17, "j").block(start, count)
        np.testing.assert_array_equal(block, reference[start : start + count])

    def test_jump_to(self):
        stream = MRGStream(5)
        ref = stream.block(0, 10)
        stream.jump_to(4)
        assert stream.next_uniform() == ref[4]
        assert stream.offset == 5

    def test_split_independence(self):
        a = MRGStream(1).split(0).next_uniforms(50)
        b = MRGStream(1).split(1).next_uniforms(50)
        assert not np.allclose(a, b)

    def test_clone(self):
        stream = MRGStream(9)
        stream.next_uniforms(13)
        clone = stream.clone()
        np.testing.assert_array_equal(clone.next_uniforms(7), stream.next_uniforms(7))

    def test_no_obvious_serial_correlation(self):
        draws = MRGStream(2).next_uniforms(5000)
        corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(corr) < 0.05

    def test_backend_interface_matches_philox(self):
        """MRG and Philox expose the same stream interface."""
        from repro.rng.philox import PhiloxStream

        for attr in (
            "next_uniform", "next_uniforms", "block", "span", "next_span", "split",
            "clone", "jump_to", "key", "offset",
        ):
            assert hasattr(MRGStream(1), attr)
            assert hasattr(PhiloxStream(1), attr)
