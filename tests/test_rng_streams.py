"""Tests for the replicated/indexed stream discipline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng.streams import (
    SCORE_QUANTUM,
    GibbsRandom,
    IndexedStream,
    make_stream,
    quantize_logs,
)
from tests.reference import item_uniforms


def _rng(seed=1, backend="philox"):
    return GibbsRandom(make_stream(seed, "test", backend=backend))


class TestMakeStream:
    def test_backends(self):
        assert make_stream(1, backend="philox").name == "philox"
        assert make_stream(1, backend="mrg").name == "mrg"

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown RNG backend"):
            make_stream(1, backend="xorshift")


class TestQuantize:
    def test_snaps_to_grid(self):
        out = quantize_logs([1.23456789012345, -2.0])
        assert out[0] == pytest.approx(round(1.23456789012345 / SCORE_QUANTUM) * SCORE_QUANTUM)

    def test_preserves_neg_inf(self):
        out = quantize_logs([-np.inf, 0.0])
        assert np.isneginf(out[0]) and out[1] == 0.0

    def test_noise_below_quantum_is_absorbed(self):
        a = quantize_logs([0.5])
        b = quantize_logs([0.5 + SCORE_QUANTUM / 10])
        assert a[0] == b[0]


class TestRandint:
    def test_bounds(self):
        rng = _rng()
        for n in (1, 2, 7, 100):
            for _ in range(50):
                assert 0 <= rng.randint(n) < n

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _rng().randint(0)

    def test_consumes_one_draw(self):
        rng = _rng()
        rng.randint(10)
        assert rng.offset == 1

    def test_roughly_uniform(self):
        rng = _rng(7)
        counts = np.bincount([rng.randint(4) for _ in range(4000)], minlength=4)
        assert counts.min() > 800


class TestRandomLabels:
    def test_shape_and_range(self):
        labels = _rng().random_labels(100, 7)
        assert labels.shape == (100,)
        assert labels.min() >= 0 and labels.max() < 7

    def test_consumes_count_draws(self):
        rng = _rng()
        rng.random_labels(25, 3)
        assert rng.offset == 25


class TestWeightedChoiceLogs:
    def test_deterministic_given_stream(self):
        a = _rng(3).weighted_choice_logs([0.0, 1.0, -1.0])
        b = _rng(3).weighted_choice_logs([0.0, 1.0, -1.0])
        assert a == b

    def test_overwhelming_weight_wins(self):
        rng = _rng(5)
        for _ in range(30):
            assert rng.weighted_choice_logs([0.0, 500.0, -10.0]) == 1

    def test_neg_inf_never_chosen(self):
        rng = _rng(9)
        for _ in range(200):
            assert rng.weighted_choice_logs([-np.inf, 0.0, -np.inf]) == 1

    def test_all_neg_inf_falls_back_uniform(self):
        rng = _rng(11)
        picks = {rng.weighted_choice_logs([-np.inf] * 4) for _ in range(100)}
        assert picks <= {0, 1, 2, 3} and len(picks) > 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _rng().weighted_choice_logs([])

    def test_consumes_one_draw(self):
        rng = _rng()
        rng.weighted_choice_logs([0.0, 0.5])
        assert rng.offset == 1

    def test_quantization_absorbs_summation_noise(self):
        """The cross-implementation contract: scores differing below the
        quantum cannot flip the decision."""
        base = [0.123456, 0.523456, -0.3]
        noisy = [v + SCORE_QUANTUM / 50 for v in base]
        for seed in range(20):
            assert _rng(seed).weighted_choice_logs(base) == _rng(seed).weighted_choice_logs(noisy)

    def test_distribution_matches_weights(self):
        rng = _rng(21)
        logs = [math.log(1.0), math.log(3.0)]
        picks = [rng.weighted_choice_logs(logs) for _ in range(4000)]
        frac = sum(picks) / len(picks)
        assert abs(frac - 0.75) < 0.03

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_always_returns_valid_index(self, logs, seed):
        idx = _rng(seed).weighted_choice_logs(logs)
        assert 0 <= idx < len(logs)


class TestChoiceTable:
    """``weighted_choice_logs`` is ``choose(choice_table(w))``: the table
    takes no draw, so a caller may build it once and choose from it many
    times."""

    @pytest.mark.parametrize(
        "logs",
        [
            [0.0, 1.0, -1.0],
            [0.123456, 0.523456, -0.3, 700.0],
            [-np.inf, 0.0, -np.inf, 2.5],
            [np.nan, -np.inf, -1.0],
            [-np.inf] * 4,  # no finite weight: the uniform fallback
        ],
    )
    @pytest.mark.parametrize("backend", ["philox", "mrg"])
    def test_choose_from_the_table_is_the_weighted_choice(self, logs, backend):
        for seed in range(12):
            split, whole = _rng(seed, backend), _rng(seed, backend)
            table = split.choice_table(logs)
            assert split.offset == 0
            assert split.choose(table) == whole.weighted_choice_logs(logs)
            assert split.offset == whole.offset == 1

    def test_all_neg_inf_marks_the_uniform_fallback(self):
        table = GibbsRandom.choice_table([-np.inf] * 3)
        assert table.cum is None and table.size == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            GibbsRandom.choice_table([])

    def test_one_table_many_choices(self):
        logs = [0.0, 0.3, -0.2, -np.inf]
        rng, again = _rng(5), _rng(5)
        table = rng.choice_table(logs)
        assert [rng.choose(table) for _ in range(20)] == [
            again.weighted_choice_logs(logs) for _ in range(20)
        ]


def _positioned(seed: int, size: int):
    """Random log-weights at a random ascending subset of ``size`` options
    (``-inf`` at about one in ten of them), and the full-length vector
    they stand for (``-inf`` everywhere else)."""
    gen = np.random.default_rng(seed)
    positions = np.flatnonzero(gen.random(size) < 0.4)
    if positions.size == 0:
        positions = np.array([gen.integers(size)])
    logs = gen.normal(scale=3.0, size=positions.size)
    logs[gen.random(positions.size) < 0.1] = -np.inf
    full = np.full(size, -np.inf)
    full[positions] = logs
    return logs, positions, full


class TestChoiceTablePositions:
    """A table over listed positions only is the full-length table: its
    running sum at the listed positions and its total are bit-identical,
    so every draw picks alike."""

    @pytest.mark.parametrize("size", [1, 7, 64, 300, 5000])
    def test_same_sums_and_choices(self, size):
        naive_total_differs = False
        for seed in range(40):
            logs, positions, full = _positioned(seed, size)
            table = GibbsRandom.choice_table(logs, positions=positions, size=size)
            whole = GibbsRandom.choice_table(full)
            assert table.size == whole.size == size
            if whole.cum is None:
                assert table.cum is None
                continue
            np.testing.assert_array_equal(table.cum, whole.cum[positions])
            assert table.total == whole.total
            q = quantize_logs(logs)
            listed = np.exp(q - q[np.isfinite(q)].max())  # -inf weighs 0
            naive_total_differs |= listed.sum() != whole.total
            rng, again = _rng(seed), _rng(seed)
            assert [rng.choose(table) for _ in range(25)] == [
                again.choose(whole) for _ in range(25)
            ]
        if size >= 300:
            # Summing the listed weights alone would move the total.
            assert naive_total_differs

    def test_all_listed_impossible_is_the_uniform_fallback_over_size(self):
        table = GibbsRandom.choice_table(
            [-np.inf, -np.inf], positions=np.array([1, 4]), size=6
        )
        assert table.cum is None and table.size == 6


class TestIndexedStream:
    def test_item_blocks_are_disjoint_and_deterministic(self):
        istream = IndexedStream(make_stream(1, "idx"), draws_per_item=5)
        a = istream.items_span(3, 1).array()
        b = istream.items_span(4, 1).array()
        assert a.shape == (5,)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, item_uniforms(istream, 3))

    def test_item_block_matches_flat_stream(self):
        """Item i owns draws [i*d, (i+1)*d) — ownership independent of the
        evaluation order (the Section 4.2 block-split rule)."""
        istream = IndexedStream(make_stream(2, "idx"), draws_per_item=4)
        flat = make_stream(2, "idx").block(0, 40)
        for i in (0, 3, 9):
            np.testing.assert_array_equal(istream.items_span(i, 1).array(), flat[4 * i : 4 * i + 4])

    def test_partial_fetch(self):
        """A span of several items is their blocks one after another, so its
        first items are the span of those items alone."""
        istream = IndexedStream(make_stream(3, "idx"), draws_per_item=6)
        span = istream.items_span(2, 3).array()
        np.testing.assert_array_equal(span[:6], istream.items_span(2, 1).array())
        np.testing.assert_array_equal(
            span, np.concatenate([item_uniforms(istream, i) for i in (2, 3, 4)])
        )

    def test_invalid_draws_per_item(self):
        with pytest.raises(ValueError):
            IndexedStream(make_stream(1), draws_per_item=0)

    def test_spawn_creates_distinct_stream(self):
        istream = IndexedStream(make_stream(1, "idx"), draws_per_item=3)
        child = istream.spawn("module", 7)
        assert not np.array_equal(child.items_span(0, 1).array(), istream.items_span(0, 1).array())


class TestCrossBackendContract:
    """Both backends satisfy the same replication/consistency contracts."""

    @pytest.mark.parametrize("backend", ["philox", "mrg"])
    def test_lockstep_replication(self, backend):
        ranks = [GibbsRandom(make_stream(7, "r", backend=backend)) for _ in range(3)]
        for _ in range(10):
            draws = [r.uniform() for r in ranks]
            assert len(set(draws)) == 1

    @pytest.mark.parametrize("backend", ["philox", "mrg"])
    def test_choice_sequence_deterministic(self, backend):
        def run():
            rng = GibbsRandom(make_stream(5, "c", backend=backend))
            return [rng.weighted_choice_logs([0.0, 0.3, -0.2]) for _ in range(15)]

        assert run() == run()
