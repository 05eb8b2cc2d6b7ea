"""Tests for the counter-based Philox stream."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from repro.rng.mrg import MRGStream
from repro.rng.philox import _REFILL, DrawSpan, PhiloxStream, derive_key
from repro.rng.streams import GibbsRandom, IndexedStream
from tests.reference import item_uniforms


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(1, "a", 2) == derive_key(1, "a", 2)

    def test_seed_sensitivity(self):
        assert derive_key(1, "a") != derive_key(2, "a")

    def test_path_sensitivity(self):
        assert derive_key(1, "a") != derive_key(1, "b")
        assert derive_key(1, "a", 0) != derive_key(1, "a", 1)

    def test_path_order_matters(self):
        assert derive_key(1, "a", "b") != derive_key(1, "b", "a")

    def test_fits_in_64_bits(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_key(seed, "x") < 2**64

    def test_empty_path(self):
        assert derive_key(7) == 7  # no mixing without path parts


class TestSequentialDraws:
    def test_uniform_range(self):
        stream = PhiloxStream(1)
        draws = stream.next_uniforms(1000)
        assert (draws >= 0).all() and (draws < 1).all()

    def test_deterministic_replay(self):
        a = PhiloxStream(5, "x").next_uniforms(64)
        b = PhiloxStream(5, "x").next_uniforms(64)
        np.testing.assert_array_equal(a, b)

    def test_offset_advances(self):
        stream = PhiloxStream(1)
        assert stream.offset == 0
        stream.next_uniform()
        assert stream.offset == 1
        stream.next_uniforms(10)
        assert stream.offset == 11

    def test_scalar_matches_vector(self):
        vec = PhiloxStream(9).next_uniforms(8)
        stream = PhiloxStream(9)
        scalars = [stream.next_uniform() for _ in range(8)]
        np.testing.assert_allclose(scalars, vec)

    def test_mean_is_centered(self):
        draws = PhiloxStream(3).next_uniforms(20000)
        assert abs(draws.mean() - 0.5) < 0.01


class TestBlockAccess:
    @given(start=st.integers(0, 500), count=st.integers(0, 64))
    @settings(max_examples=50, deadline=None)
    def test_block_matches_sequential(self, start, count):
        reference = PhiloxStream(11, "blk").next_uniforms(start + count)
        block = PhiloxStream(11, "blk").block(start, count)
        np.testing.assert_array_equal(block, reference[start : start + count])

    def test_block_does_not_move_position(self):
        stream = PhiloxStream(2)
        stream.block(100, 10)
        assert stream.offset == 0

    def test_adjacent_blocks_tile_the_stream(self):
        stream = PhiloxStream(4)
        whole = stream.block(0, 30)
        parts = np.concatenate([stream.block(0, 7), stream.block(7, 13), stream.block(20, 10)])
        np.testing.assert_array_equal(whole, parts)

    def test_jump_to(self):
        stream = PhiloxStream(6)
        ref = stream.block(0, 20)
        stream.jump_to(12)
        assert stream.next_uniform() == ref[12]

    def test_unaligned_offsets(self):
        # Philox granule is 4 draws; every residue class must work.
        ref = PhiloxStream(8).next_uniforms(32)
        for start in range(9):
            got = PhiloxStream(8).block(start, 5)
            np.testing.assert_array_equal(got, ref[start : start + 5])


#: one step of a stream program: (operation, argument); arguments straddle
#: the refill size so programs cross buffer boundaries in both directions
_OPS = st.one_of(
    st.tuples(st.just("uniform"), st.integers(1, _REFILL + 40)),
    st.tuples(st.just("uniforms"), st.integers(0, 2 * _REFILL)),
    st.tuples(st.just("block"), st.integers(0, 3 * _REFILL)),
    st.tuples(st.just("span"), st.integers(0, 3 * _REFILL)),
    st.tuples(st.just("next_span"), st.integers(0, 2 * _REFILL)),
    st.tuples(st.just("jump"), st.integers(0, 3 * _REFILL)),
    st.tuples(st.just("clone"), st.integers(0, 5)),
    st.tuples(st.just("split"), st.integers(0, 3)),
)


def _check_program(make, ops):
    """Run ``ops`` on a stream; every draw it hands out must be
    ``block(i, 1)[0]`` for the index ``i`` it consumed, and ``offset`` must
    count consumed draws only — however the draws are produced inside."""
    stream, oracle = make(), make()
    expected = 0
    for op, arg in ops:
        if op == "uniform":
            for _ in range(arg):
                assert stream.next_uniform() == oracle.block(expected, 1)[0]
                expected += 1
        elif op == "uniforms":
            np.testing.assert_array_equal(
                stream.next_uniforms(arg), oracle.block(expected, arg)
            )
            expected += arg
        elif op == "block":  # random access never moves the position
            np.testing.assert_array_equal(stream.block(arg, 3), oracle.block(arg, 3))
        elif op == "span":  # ... by address or by value
            span = stream.span(arg, 3)
            assert (span.start, span.count) == (arg, 3)
            np.testing.assert_array_equal(span.array(), oracle.block(arg, 3))
        elif op == "next_span":  # moves the position now, draws when asked
            span = stream.next_span(arg)
            assert (span.start, span.count) == (expected, arg)
            expected += arg
            assert stream.offset == expected
            np.testing.assert_array_equal(span.array(), oracle.block(span.start, arg))
        elif op == "jump":
            stream.jump_to(arg)
            expected = arg
        elif op == "clone":  # clone and parent advance independently
            clone = stream.clone()
            assert clone.offset == expected
            for i in range(arg):
                assert clone.next_uniform() == oracle.block(expected + i, 1)[0]
            assert clone.offset == expected + arg
        elif op == "split":  # a child starts at 0 on its own key
            child = stream.split("child", arg)
            assert child.offset == 0
            assert child.next_uniform() == make().split("child", arg).block(0, 1)[0]
        assert stream.offset == expected


class TestBufferedDraws:
    """``next_uniform`` serves draws from a block generated ahead; nothing
    observable may depend on where that block starts or ends."""

    @given(ops=st.lists(_OPS, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_matches_random_access(self, ops):
        _check_program(lambda: PhiloxStream(21, "buffered"), ops)

    def test_refill_boundary(self):
        stream = PhiloxStream(3, "edge")
        ref = PhiloxStream(3, "edge").block(0, 2 * _REFILL + 2)
        got = [stream.next_uniform() for _ in range(2 * _REFILL + 2)]
        np.testing.assert_array_equal(got, ref)
        assert stream.offset == 2 * _REFILL + 2

    def test_backward_jump_inside_and_before_buffer(self):
        stream = PhiloxStream(3, "back")
        ref = stream.block(0, _REFILL + 10)
        stream.jump_to(_REFILL - 2)
        [stream.next_uniform() for _ in range(6)]  # buffer now starts mid-stream
        for target in (_REFILL, 5):  # inside the buffer, then before it
            stream.jump_to(target)
            assert stream.next_uniform() == ref[target]
            assert stream.offset == target + 1

    def test_mid_buffer_clone_is_independent(self):
        parent = PhiloxStream(4, "clone")
        ref = parent.block(0, 40)
        [parent.next_uniform() for _ in range(10)]
        clone = parent.clone()
        assert [clone.next_uniform() for _ in range(20)] == list(ref[10:30])
        assert parent.offset == 10
        assert parent.next_uniform() == ref[10]

    def test_mrg_honours_the_same_contract(self):
        """... spans included: the state it keeps for sequential draws is
        re-seated wherever the position moved."""
        _check_program(
            lambda: MRGStream(21, "buffered"),
            [("uniform", 5), ("uniforms", 7), ("block", 30), ("clone", 3),
             ("jump", 4), ("uniform", 9), ("split", 1), ("jump", 0), ("uniforms", 3),
             ("next_span", 6), ("uniform", 2), ("span", 40), ("uniforms", 4),
             ("next_span", 0), ("uniform", 2)],
        )


class TestKeptGenerator:
    """Materialised draws come from one generator per stream, re-seated per
    call; the definition stays a *fresh* ``Philox`` at counter ``i // 4``."""

    @staticmethod
    def _fresh(key, offset, count):
        bit_generator = Philox(key=key)
        state = bit_generator.state
        state["state"]["counter"][0] = offset // 4
        bit_generator.state = state
        return Generator(bit_generator).random(offset % 4 + count)[offset % 4 :]

    @given(
        calls=st.lists(
            st.tuples(st.integers(0, 2**62), st.integers(0, 600)), min_size=1, max_size=8
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reseated_equals_fresh_in_any_call_order(self, calls):
        stream = PhiloxStream(77, "kept")
        for offset, count in calls:  # residues, long and empty, back and forth
            np.testing.assert_array_equal(
                stream.block(offset, count), self._fresh(stream.key, offset, count)
            )

    def test_built_lazily_and_never_shared(self):
        stream = PhiloxStream(5, "own")
        assert stream._generator is None
        stream.span(0, 8)  # addresses generate nothing
        stream.next_span(8)
        assert stream._generator is None
        stream.next_uniform()
        kept = stream._generator
        assert kept is not None
        assert stream.clone()._generator is None
        assert stream.split("child")._generator is None
        stream.block(1000, 3)
        assert stream._generator is kept

    def test_not_part_of_the_pickled_state(self):
        stream = PhiloxStream(5, "wire")
        [stream.next_uniform() for _ in range(3)]
        copy = pickle.loads(pickle.dumps(stream))
        assert copy._generator is None and stream._generator is not None
        assert copy.offset == 3 and copy.key == stream.key
        assert copy.next_uniform() == stream.next_uniform()


class TestSpans:
    @pytest.mark.parametrize("make", [PhiloxStream, MRGStream])
    def test_both_streams_have_spans(self, make):
        """A span names its stream's generator and key: its draws are
        computable from the address alone."""
        stream = make(3, "s")
        span = stream.span(4, 2)
        assert (span.generator, span.key) == (make.name, stream.key) == (
            make.name, derive_key(3, "s")
        )
        np.testing.assert_array_equal(span.array(), make(3, "s").block(4, 2))

    @pytest.mark.parametrize("make", [PhiloxStream, MRGStream])
    def test_gibbs_span_moves_the_stream_like_uniforms(self, make):
        """... and is the address of the draws."""
        by_value, by_address = GibbsRandom(make(8, "g")), GibbsRandom(make(8, "g"))
        for count in (3, 0, 10):
            want = by_value.uniforms(count)
            span = by_address.span(count)
            assert isinstance(span, DrawSpan) and span.count == count
            assert by_address.offset == by_value.offset
            np.testing.assert_array_equal(span.array(), want)
        assert by_address.uniform() == by_value.uniform()

    @pytest.mark.parametrize("make", [PhiloxStream, MRGStream])
    def test_items_span_is_the_items_rows(self, make):
        istream = IndexedStream(make(2, "items"), 5)
        span = istream.items_span(3, 4)
        assert (span.start, span.count) == (15, 20)
        rows = span.array().reshape(4, 5)
        for i in range(4):
            np.testing.assert_array_equal(rows[i], item_uniforms(istream, 3 + i))


@pytest.mark.parametrize("make", [PhiloxStream, MRGStream])
class TestTypedEdges:
    """A negative position or count is a ``ValueError`` naming the argument,
    where it is given — not an ``OverflowError`` out of NumPy at the next draw."""

    def test_offsets(self, make):
        with pytest.raises(ValueError, match="offset must be non-negative, got -1"):
            make(1, offset=-1)
        stream = make(1)
        with pytest.raises(ValueError, match="offset must be non-negative"):
            stream.jump_to(-3)
        assert stream.offset == 0

    def test_random_access(self, make):
        stream = make(1)
        for call in (stream.block, stream.span):
            with pytest.raises(ValueError, match="start must be non-negative"):
                call(-1, 4)
            with pytest.raises(ValueError, match="count must be non-negative"):
                call(0, -4)

    def test_sequential(self, make):
        stream = make(1)
        for call in (stream.next_uniforms, GibbsRandom(stream).span):
            with pytest.raises(ValueError, match="count must be non-negative"):
                call(-2)
        assert stream.offset == 0

    def test_indexed_items(self, make):
        istream = IndexedStream(make(1), 3)
        with pytest.raises(ValueError, match="first must be non-negative"):
            istream.items_span(-1, 2)
        with pytest.raises(ValueError, match="count must be non-negative"):
            istream.items_span(0, -2)


class TestSplitting:
    def test_split_gives_independent_streams(self):
        parent = PhiloxStream(1)
        a = parent.split("child", 0).next_uniforms(100)
        b = parent.split("child", 1).next_uniforms(100)
        assert not np.allclose(a, b)

    def test_split_is_deterministic(self):
        a = PhiloxStream(1).split("c").next_uniforms(10)
        b = PhiloxStream(1).split("c").next_uniforms(10)
        np.testing.assert_array_equal(a, b)

    def test_nested_split_equals_flat_path(self):
        nested = PhiloxStream(1).split("a").split("b").next_uniforms(5)
        flat = PhiloxStream(1, "a", "b").next_uniforms(5)
        np.testing.assert_array_equal(nested, flat)

    def test_clone_preserves_position(self):
        stream = PhiloxStream(1)
        stream.next_uniforms(17)
        clone = stream.clone()
        np.testing.assert_array_equal(clone.next_uniforms(5), stream.next_uniforms(5))


class TestReplication:
    """The replicated-stream contract of Section 4.2: identical seeds and
    call sequences yield identical draws on every (simulated) rank."""

    def test_lockstep_ranks_agree(self):
        ranks = [PhiloxStream(99, "replicated") for _ in range(4)]
        for _ in range(20):
            draws = [stream.next_uniform() for stream in ranks]
            assert len(set(draws)) == 1

    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 7])
    def test_block_split_is_partition_invariant(self, n_blocks):
        """Block-splitting the stream across ranks covers the same draws."""
        total = 42
        whole = PhiloxStream(5, "w").block(0, total)
        bounds = np.linspace(0, total, n_blocks + 1).astype(int)
        parts = [
            PhiloxStream(5, "w").block(int(lo), int(hi - lo))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
