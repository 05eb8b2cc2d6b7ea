"""Bayesian scores used by the Lemon-Tree learning tasks.

* :mod:`repro.scoring.normal_gamma` — the normal-gamma marginal likelihood
  of a data block from its sufficient statistics.  Every score in the
  pipeline (co-clustering, tree merging, split assignment baselines) reduces
  to sums of these block scores, which is what makes the GaneSH score
  decomposable (Section 2.2.1).
* :mod:`repro.scoring.suffstats` — (count, sum, sum-of-squares) triples with
  add/remove/merge algebra, the unit of incremental score updates.
* :mod:`repro.scoring.split_score` — the sigmoid split posterior explored by
  bounded discrete sampling (Section 2.2.3, step 2), whose per-split cost
  variance drives the load imbalance studied in Section 5.3.1.
* :mod:`repro.scoring.kernel` — the lazy-margin split-scoring kernel:
  memoized, deduplicated beta-grid scores straight from the ``(P, n_obs)``
  parent-value slice, never materializing the dense margins matrix: the
  NumPy backend (``kernel_backend``) and the oracle of the native batch
  entry in :mod:`repro._native`, certified bit-identical to it at load
  time.
"""

from repro.scoring.kernel import (
    KERNEL_BACKENDS,
    LazySplitKernel,
    active_kernel_backend,
    resolve_kernel_backend,
    split_kernel_from_arrays,
)
from repro.scoring.normal_gamma import NormalGammaPrior, log_marginal
from repro.scoring.split_score import SplitScorer
from repro.scoring.suffstats import SuffStats

__all__ = [
    "NormalGammaPrior",
    "log_marginal",
    "SuffStats",
    "SplitScorer",
    "LazySplitKernel",
    "split_kernel_from_arrays",
    "KERNEL_BACKENDS",
    "resolve_kernel_backend",
    "active_kernel_backend",
]
