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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from repro.scoring.kernel import resolve_kernel_backend

_LOG_2PI = math.log(2.0 * math.pi)


def _native_kernels():
    """The certified native kernels, or ``None`` on the NumPy backend.

    Resolution honours the process-wide ``kernel_backend`` configuration."""
    return resolve_kernel_backend()[1]


def _flat(arr: np.ndarray) -> np.ndarray:
    """``arr`` as the C-contiguous 1-D array the native kernels take (the
    Gibbs sweeps' stacked inputs already are, and pass through)."""
    if arr.ndim == 1 and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr).ravel()


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

    if not scalar and n.size and n.shape == s.shape == q.shape:
        native = _native_kernels()
        if native is not None:
            # gammaln stays in SciPy (same call both ways); the certified
            # extension replicates the remaining expression bit for bit.
            alpha_n = prior.alpha0 + n / 2.0
            out = native.log_marginal(
                _flat(n), _flat(s), _flat(q), _flat(gammaln(alpha_n)), prior
            )
            return out if n.ndim == 1 else out.reshape(n.shape)

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


def log_marginal_scalar(
    count: float,
    total: float,
    sumsq: float,
    prior: NormalGammaPrior = DEFAULT_PRIOR,
) -> float:
    """Pure-``math`` scalar twin of :func:`log_marginal`.

    Used by the pure-Python reference implementation (the Lemon-Tree
    stand-in) so that its inner loops contain no NumPy; results agree with
    the vectorized version to floating-point noise, which the decision
    quantum in :mod:`repro.rng.streams` absorbs.
    """
    if count <= 0:
        return 0.0
    xbar = total / count
    ss = sumsq - count * xbar * xbar
    if ss < 0.0:
        ss = 0.0
    lam_n = prior.lambda0 + count
    alpha_n = prior.alpha0 + count / 2.0
    diff = xbar - prior.mu0
    beta_n = prior.beta0 + ss / 2.0 + prior.lambda0 * count * diff * diff / (2.0 * lam_n)
    return (
        math.lgamma(alpha_n)
        - prior.lgamma_alpha0
        + prior.alpha0 * prior.log_beta0
        - alpha_n * math.log(beta_n)
        + 0.5 * (prior.log_lambda0 - math.log(lam_n))
        - (count / 2.0) * _LOG_2PI
    )
