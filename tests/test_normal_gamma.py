"""Tests for the normal-gamma marginal likelihood."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring.normal_gamma import (
    DEFAULT_PRIOR,
    NormalGammaPrior,
    gammaln,
    log_marginal,
    log_marginal_scalar,
)


def _stats(values):
    v = np.asarray(values, dtype=np.float64)
    return float(v.size), float(v.sum()), float((v * v).sum())


def _predictive_logml(values, prior=DEFAULT_PRIOR):
    """Chain-rule reference: log p(x_1..n) = sum_i log p(x_i | x_<i) with
    the student-t posterior predictive of the normal-gamma model."""
    mu, lam, alpha, beta = prior.mu0, prior.lambda0, prior.alpha0, prior.beta0
    total = 0.0
    for x in values:
        nu = 2.0 * alpha
        scale_sq = beta * (lam + 1.0) / (alpha * lam)
        z = (x - mu) / math.sqrt(scale_sq)
        total += (
            math.lgamma((nu + 1) / 2)
            - math.lgamma(nu / 2)
            - 0.5 * math.log(nu * math.pi * scale_sq)
            - (nu + 1) / 2 * math.log1p(z * z / nu)
        )
        # posterior update
        mu_new = (lam * mu + x) / (lam + 1)
        beta = beta + lam * (x - mu) ** 2 / (2 * (lam + 1))
        mu = mu_new
        lam += 1.0
        alpha += 0.5
    return total


class TestPriorValidation:
    def test_defaults_valid(self):
        NormalGammaPrior()

    @pytest.mark.parametrize("field", ["lambda0", "alpha0", "beta0"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            NormalGammaPrior(**{field: 0.0})
        with pytest.raises(ValueError):
            NormalGammaPrior(**{field: -1.0})

    def test_cached_logs(self):
        prior = NormalGammaPrior(lambda0=2.0, beta0=3.0, alpha0=1.5)
        assert prior.log_lambda0 == pytest.approx(math.log(2.0))
        assert prior.log_beta0 == pytest.approx(math.log(3.0))
        assert prior.lgamma_alpha0 == pytest.approx(math.lgamma(1.5))


class TestLogMarginal:
    def test_empty_block_scores_zero(self):
        assert log_marginal(0.0, 0.0, 0.0) == 0.0

    def test_matches_predictive_chain_rule(self):
        """The closed form must equal the sequential predictive product —
        a full derivation check of the marginal likelihood."""
        rng = np.random.default_rng(0)
        for size in (1, 2, 5, 20):
            values = rng.normal(0.3, 1.2, size=size)
            closed = log_marginal(*_stats(values))
            chain = _predictive_logml(values)
            assert closed == pytest.approx(chain, rel=1e-10, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        counts, totals, sumsqs = [], [], []
        expected = []
        for size in (1, 3, 8, 30):
            values = rng.normal(size=size)
            c, t, q = _stats(values)
            counts.append(c)
            totals.append(t)
            sumsqs.append(q)
            expected.append(log_marginal_scalar(c, t, q))
        out = log_marginal(np.array(counts), np.array(totals), np.array(sumsqs))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_scalar_returns_float(self):
        assert isinstance(log_marginal(3.0, 1.0, 2.0), float)

    def test_scalar_path_agrees_with_the_pure_math_twin(self):
        got = log_marginal(3.0, 1.5, 2.0)
        assert isinstance(got, float)
        assert got == pytest.approx(log_marginal_scalar(3.0, 1.5, 2.0), rel=1e-12)

    def test_2d_shape_preserved(self):
        rng = np.random.default_rng(0)
        count = rng.integers(0, 9, size=(4, 5)).astype(np.float64)
        total = rng.normal(size=(4, 5)) * count
        sumsq = np.abs(rng.normal(size=(4, 5))) * count + total**2 / np.maximum(count, 1)
        out = log_marginal(count, total, sumsq)
        assert out.shape == (4, 5)
        assert np.all(out[count == 0] == 0.0)

    def test_tight_data_beats_spread_data(self):
        tight = log_marginal(*_stats([1.0, 1.01, 0.99, 1.0]))
        spread = log_marginal(*_stats([5.0, -5.0, 3.0, -3.0]))
        assert tight > spread

    def test_permutation_invariance(self):
        values = [0.5, -1.2, 3.3, 0.0, 2.1]
        a = log_marginal(*_stats(values))
        b = log_marginal(*_stats(values[::-1]))
        assert a == pytest.approx(b, rel=1e-14)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=30),
        st.lists(st.floats(-5, 5), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_chain_decomposition_property(self, xs, ys):
        """log p(x ++ y) = log p(x) + log p(y | x): joint >= product of
        independent marginals is NOT guaranteed, but the closed form must be
        internally consistent under concatenation via the predictive."""
        joint = log_marginal(*_stats(xs + ys))
        via_chain = _predictive_logml(xs + ys)
        assert joint == pytest.approx(via_chain, rel=1e-8, abs=1e-8)

    def test_cancellation_guard(self):
        """Huge offsets make sum-of-squares cancellation severe; the clip
        must keep the result finite."""
        values = np.full(10, 1e8) + np.random.default_rng(3).normal(0, 1e-4, 10)
        out = log_marginal(*_stats(values))
        assert np.isfinite(out)

    def test_scalar_empty(self):
        assert log_marginal_scalar(0, 0, 0) == 0.0


class TestGammalnPort:
    """``gammaln`` is cephes ``lgam``, the function SciPy's ``gammaln``
    evaluates: scalars bit-identical to it, arrays within 2 ulp (NumPy's
    ``log`` against libm's), on the arguments a prior feeds it."""

    @pytest.fixture(scope="class", params=[0.1, 1.5, 0.37])
    def grid(self, request):
        special = pytest.importorskip("scipy.special")
        x = request.param + np.arange(200_000) / 2.0
        return x, special.gammaln(x)

    def test_scalar_path_is_bit_identical(self, grid):
        x, want = grid
        got = np.array([gammaln(v) for v in x.tolist()])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edge", [13.0, 1000.0, 1e8])
    def test_scalar_path_is_bit_identical_at_each_branch_edge(self, edge):
        special = pytest.importorskip("scipy.special")
        for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
            assert gammaln(float(v)) == special.gammaln(v), v

    def test_array_path_is_within_two_ulp(self, grid):
        x, want = grid
        got = gammaln(x)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))

    def test_array_path_is_the_scalar_path_where_the_logs_agree(self, grid):
        x, _ = grid
        same = np.log(x) == np.array([math.log(v) for v in x.tolist()])
        scalar = np.array([gammaln(v) for v in x[same].tolist()])
        assert gammaln(x)[same].tobytes() == scalar.tobytes()

    def test_an_elements_bits_do_not_depend_on_its_array(self, grid):
        """Short arrays run element by element, long ones vectorized, both
        on NumPy's ``log``: a ``gammaln_table`` entry and the same argument
        in a short ``log_marginal`` array agree, bit for bit."""
        x, _ = grid
        pieces = np.concatenate([gammaln(x[i : i + 7]) for i in range(0, x.size, 7)])
        assert pieces.tobytes() == gammaln(x).tobytes()

    def test_array_spanning_the_small_and_large_branches(self):
        x = np.array([[20.0, 0.3, 1e9], [2.0, 5000.0, 12.999]])
        got = gammaln(x)
        assert got.shape == x.shape
        for g, v in zip(got.ravel().tolist(), x.ravel().tolist()):
            assert g == pytest.approx(math.lgamma(v), rel=1e-14, abs=1e-15)
        assert gammaln(x[:, :1]).tobytes() == got[:, :1].tobytes()  # strided input

    def test_zero_d_input_returns_a_float(self):
        for x in (np.array(3.5), np.float64(3.5), 3.5, 40.0):
            got = gammaln(x)
            assert type(got) is float and got == pytest.approx(math.lgamma(float(x)))

    def test_out_fills_in_place_and_is_returned(self):
        x = 0.1 + np.arange(40_000) / 2.0  # several blocks, the first one mixed
        want = gammaln(x)
        out = np.empty_like(x)
        assert gammaln(x, out=out) is out and out.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            gammaln(x, out=np.empty(2 * x.size)[::2])
        assert gammaln(x, out=x) is x and x.tobytes() == want.tobytes()
