"""Normal-gamma marginal likelihood of a data block.

The GaneSH co-clustering model (Joshi et al. 2008, used by Lemon-Tree and
this paper) treats every (variable-cluster x observation-cluster) block as an
exchangeable sample from a Gaussian with unknown mean and precision under a
conjugate normal-gamma prior.  The Bayesian score of a co-clustering is the
sum of the log marginal likelihoods of its blocks, hence *decomposable*: a
Gibbs move only touches the blocks it changes.

For a block of ``N`` values with mean ``xbar`` and centered sum of squares
``ss``, and prior ``(mu0, lambda0, alpha0, beta0)``::

    lambda_N = lambda0 + N
    alpha_N  = alpha0 + N / 2
    beta_N   = beta0 + ss / 2 + lambda0 * N * (xbar - mu0)^2 / (2 * lambda_N)

    log ml = lgamma(alpha_N) - lgamma(alpha0)
           + alpha0 * log(beta0) - alpha_N * log(beta_N)
           + (log(lambda0) - log(lambda_N)) / 2
           - (N / 2) * log(2 * pi)

All functions are vectorized over NumPy arrays of block statistics.
``lgamma`` is :func:`gammaln`, cephes ``lgam`` (the function SciPy's
``gammaln`` evaluates) ported here, so the runtime needs no SciPy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# cephes lgam: Stirling's series in 1 / x^2 for x >= 13 (_LGAM_A below
# x = 1000, the three-term _LGAM_D to 1e8, none above); below 13 the
# recurrence to [2, 3) and x * B(x) / C(x) there.  Each tuple is a
# polynomial, highest power first.
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_D = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,  # monic: 1.0 * x is x, as in cephes p1evl
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi)) as cephes rounds it


def _polevl(x, coefs):
    """cephes ``polevl``: Horner's rule, on a float or elementwise on an array."""
    s = coefs[0]
    for c in coefs[1:]:
        s = s * x + c
    return s


@functools.lru_cache(maxsize=4096)
def _lgam_small(x: float) -> float:
    """cephes ``lgam`` below 13: the recurrence to ``[2, 3)``, then
    ``x * B(x) / C(x)``.  Memoised, because the arguments a prior feeds it
    are few (``alpha0 + k / 2`` for ``k < 26``) and its loops cost most."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x += p - 2.0
    return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)


def _lgam(x: float, log_x: float | None = None) -> float:
    """cephes ``lgam`` of one float ``x > 0``, step for step.  ``log_x``
    defaults to ``math.log(x)``, the libm ``log`` cephes calls, so the
    result is SciPy's, bit for bit; the array path passes NumPy's."""
    if x < 13.0:
        return _lgam_small(x)
    q = (x - 0.5) * (math.log(x) if log_x is None else log_x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    return q + _polevl(p, _LGAM_D if x >= 1000.0 else _LGAM_A) / x


def _stirling(x: np.ndarray, out: np.ndarray) -> None:
    """:func:`_lgam` of every ``x >= 13`` with NumPy's ``log``, into ``out``
    (which may be ``x``): the same operations in the same order,
    elementwise.  NumPy's ``log`` may differ from libm's in the last bit,
    hence <= 2 ulp from SciPy."""
    p = 1.0 / (x * x)
    s = _polevl(p, _LGAM_A)
    if x.max() >= 1000.0:
        np.copyto(s, _polevl(p, _LGAM_D), where=x >= 1000.0)
        np.copyto(s, 0.0, where=x > 1.0e8)  # no series: q + 0.0 is q
    q = (x - 0.5) * np.log(x) - x + _LS2PI
    np.add(q, s / x, out=out)


def _fill(x: np.ndarray, out: np.ndarray) -> None:
    """:func:`gammaln` of a 1-d block ``x`` into ``out`` (which may be ``x``).
    A short block runs :func:`_lgam` per element on NumPy's ``log`` of it,
    a long one :func:`_stirling`: the same bits, at less overhead each."""
    if x.size <= _PER_ELEMENT:
        out[:] = [_lgam(v, lv) for v, lv in zip(x.tolist(), np.log(x).tolist())]
        return
    low = x < 13.0
    small = x[low]  # a copy, read before ``out`` is written
    if small.size < x.size:
        _stirling(np.maximum(x, 13.0) if small.size else x, out)
    if small.size:
        out[low] = [_lgam_small(v) for v in small.tolist()]


#: elements per block of an array :func:`gammaln`: its temporaries stay in cache
_BLOCK = 16384
#: blocks up to this size go element by element (measured break-even)
_PER_ELEMENT = 20


def gammaln(x, out=None):
    """``log(Gamma(x))`` for ``x > 0``: cephes ``lgam``, what SciPy's
    ``gammaln`` computes.  A 0-d ``x`` (without ``out``) is one Python
    float, bit-identical to SciPy.  An array is filled elementwise, into
    ``out`` when given (it may be ``x``), and returned: Stirling's series
    on NumPy's ``log`` where ``x >= 13`` (<= 2 ulp from SciPy; an element's
    bits do not depend on the array it is in), the scalar routine below."""
    if out is None and np.ndim(x) == 0:
        return _lgam(float(x))
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    flat, into = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _BLOCK):
        _fill(flat[i : i + _BLOCK], into[i : i + _BLOCK])
    return out


@dataclass(frozen=True)
class NormalGammaPrior:
    """Conjugate prior for the per-block Gaussian.

    Defaults follow Lemon-Tree's weakly-informative choice: prior mean 0,
    one pseudo-observation of strength ``lambda0`` and a vague gamma on the
    precision.
    """

    mu0: float = 0.0
    lambda0: float = 0.1
    alpha0: float = 0.1
    beta0: float = 0.1

    def __post_init__(self) -> None:
        if self.lambda0 <= 0 or self.alpha0 <= 0 or self.beta0 <= 0:
            raise ValueError("lambda0, alpha0 and beta0 must be positive")

    @property
    def log_lambda0(self) -> float:
        return math.log(self.lambda0)

    @property
    def log_beta0(self) -> float:
        return math.log(self.beta0)

    @property
    def lgamma_alpha0(self) -> float:
        return math.lgamma(self.alpha0)


DEFAULT_PRIOR = NormalGammaPrior()


def log_marginal(
    count: np.ndarray | float,
    total: np.ndarray | float,
    sumsq: np.ndarray | float,
    prior: NormalGammaPrior = DEFAULT_PRIOR,
) -> np.ndarray | float:
    """Log marginal likelihood of blocks from raw sufficient statistics.

    ``count``, ``total`` and ``sumsq`` are broadcastable arrays (or scalars)
    of the number of values, their sum, and their sum of squares.  Empty
    blocks (count == 0) score exactly 0.
    """
    scalar = np.isscalar(count)
    n = np.asarray(count, dtype=np.float64)
    s = np.asarray(total, dtype=np.float64)
    q = np.asarray(sumsq, dtype=np.float64)

    n_safe = np.where(n > 0, n, 1.0)
    xbar = s / n_safe
    # Centered sum of squares; clip tiny negative values from cancellation.
    ss = np.maximum(q - n_safe * xbar * xbar, 0.0)

    lam_n = prior.lambda0 + n
    alpha_n = prior.alpha0 + n / 2.0
    diff = xbar - prior.mu0
    beta_n = prior.beta0 + ss / 2.0 + prior.lambda0 * n * diff * diff / (2.0 * lam_n)

    out = (
        gammaln(alpha_n)
        - prior.lgamma_alpha0
        + prior.alpha0 * prior.log_beta0
        - alpha_n * np.log(beta_n)
        + 0.5 * (prior.log_lambda0 - np.log(lam_n))
        - (n / 2.0) * _LOG_2PI
    )
    out = np.where(n > 0, out, 0.0)
    if scalar:
        return float(out)
    return out


def gammaln_table(t_max: int, prior: NormalGammaPrior = DEFAULT_PRIOR, rows: int = 1) -> np.ndarray:
    """``gammaln(alpha_N)`` of every block of ``rows * t`` values, for
    ``t = 0..t_max``: the table the native sweeps read ``gammaln`` from.
    Its arguments are the floats :func:`log_marginal` feeds ``gammaln``, so
    every entry equals the one it computes on an array, bit for bit (a
    scalar, computed with libm's ``log``, may be an ulp off); built in place."""
    table = np.arange(t_max + 1.0)
    table *= rows / 2.0  # rows * t is exact and halving commutes with rounding
    return gammaln(np.add(table, prior.alpha0, out=table), out=table)
