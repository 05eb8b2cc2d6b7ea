"""Posterior scoring of candidate parent splits by bounded discrete sampling.

A candidate split for an internal tree node ``N`` is a pair ``(X_l, v)`` of a
candidate parent variable and a split value taken from that parent's values
at the node's observations (Section 2.2.3, step 2(i)).  Its fit is measured
by a sigmoid gate with steepness ``beta``: observations in the node's left
child should sit below ``v`` and those in the right child above it, so

    score(beta) = sum_o log sigmoid(beta * margin_o),
    margin_o = (v - x_lo) if o in N_L else (x_lo - v).

Following the paper (which defers to Joshi et al. 2009), the posterior over
``beta`` is explored by a *discrete sampling chain* over a fixed beta grid
for at most ``S = max_steps`` steps, with stochastic early stopping once the
chain is stuck at a mode.  Two properties of this procedure matter for the
parallel study and are preserved here:

* the cost of scoring one split is ``O(steps * |obs(N)|)`` with ``steps``
  varying unpredictably between 1 and ``S`` — the source of the load
  imbalance measured in Section 5.3.1;
* each split consumes a private, index-addressed block of random draws
  (:class:`repro.rng.streams.IndexedStream`), so the result is independent
  of which rank evaluates it.

Splits whose best score does not beat the ``beta = 0`` coin-flip baseline
are discarded ("zero posterior probability" in the paper).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.rng.philox import DrawSpan
from repro.rng.streams import SCORE_QUANTUM
from repro.scoring.kernel import (
    LazySplitKernel,
    chain_counters,
    merge_counters,
    resolve_kernel_backend,
    run_chains,
)

#: Default discrete grid of sigmoid steepness values.
DEFAULT_BETA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

_LOG_HALF = math.log(0.5)


def check_beta_grid(beta_grid) -> np.ndarray:
    """``beta_grid`` as a float array, or a ``ValueError``: a chain needs
    at least two points to move between, each a finite steepness > 0."""
    grid = np.asarray(beta_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("beta_grid needs at least two points")
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError("beta_grid points must be finite and > 0")
    return grid


def _quantize(value: float) -> float:
    return round(value / SCORE_QUANTUM) * SCORE_QUANTUM


class SplitScorer:
    """Metropolis chain over a discrete beta grid with early stopping.

    The chain starts at a uniformly random grid point, proposes a uniformly
    random neighbouring grid point each step, accepts with the usual
    Metropolis rule, and stops early after ``stop_repeats`` consecutive
    rejections (stuck at a mode) or ``max_steps`` steps.  Each step consumes
    exactly two uniforms; one more seeds the start, so every split owns
    ``1 + 2 * max_steps`` draws of its indexed stream.

    ``kernel_backend`` is the job's ``ParallelConfig.kernel_backend``: on
    its native kernels (:attr:`native`) a batch of nodes is scored in one
    call (:meth:`score_chain_nodes`), on NumPy node by node over a
    :class:`~repro.scoring.kernel.LazySplitKernel`.
    What the scorer's runs cost its kernels accumulates in :attr:`counters`
    (the shape :func:`~repro.scoring.kernel.merge_counters` keeps) until
    :meth:`drain_counters`: a task context's scorer is drained into each
    completion record, so a job's counts are its own work, whatever else
    scored in the same process.
    """

    def __init__(
        self,
        beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID,
        max_steps: int = 10,
        stop_repeats: int = 3,
        kernel_backend: str = "auto",
    ) -> None:
        if max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if stop_repeats < 1:
            raise ValueError("stop_repeats must be at least 1")
        self.beta_grid = check_beta_grid(beta_grid)
        self.max_steps = int(max_steps)
        self.stop_repeats = int(stop_repeats)
        self.kernel_backend = kernel_backend
        #: split-kernel counters of this scorer's runs since the last drain
        self.counters: dict = {}

    @cached_property
    def native(self):
        """The certified native kernels ``kernel_backend`` resolves to
        (``None``: NumPy), resolved once, on first use: building a pool
        worker's task context stays cheap, and an explicit ``"native"``
        the worker cannot load fails the task that needs it."""
        return resolve_kernel_backend(self.kernel_backend)[1]

    @property
    def draws_per_item(self) -> int:
        return 1 + 2 * self.max_steps

    def drain_counters(self) -> dict | None:
        """The counters accumulated since the last drain (``None``: this
        scorer scored nothing since), and a fresh start."""
        counters, self.counters = self.counters, {}
        return counters or None

    def _count(self, kernel: LazySplitKernel, before: tuple[int, int]) -> None:
        """Add what a run cost the NumPy ``kernel``: the hits and
        evaluations it made since it held ``before``, and its peak
        temporary."""
        evaluations = kernel.evaluations - before[1]
        merge_counters(self.counters, {
            "hits": kernel.hits - before[0],
            "evaluations": evaluations,
            "peak_chunk_elements": kernel.peak_chunk_elements if evaluations else 0,
            "backends": ["numpy"] if evaluations else [],
        })

    def score_batch_kernel(
        self, kernel: LazySplitKernel, draws: np.ndarray | DrawSpan
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Score every candidate of ``kernel`` by its own sampling chain.

        Row ``i`` of ``draws`` holds the ``draws_per_item`` private draws of
        the kernel's candidate ``i`` — or ``draws`` is what
        :meth:`~repro.rng.streams.IndexedStream.items_span` returns for
        those rows: their :class:`~repro.rng.philox.DrawSpan`, materialised
        here.  Any other number of draws is refused.  Returns
        ``(log_scores, steps, beta_indices, accepted)`` per candidate; each
        ``(group, beta)`` score is evaluated at most once, in the kernel's
        memo, and every candidate still reads its own draws (one chain's
        scalar definition is in ``tests/reference.py``).
        This NumPy chain over :meth:`LazySplitKernel.scores` is the oracle
        the native batch entry (:meth:`score_chain_nodes`) is certified
        against.
        """
        self._check_kernel(kernel)
        groups = kernel.item_groups

        def provider(rows: np.ndarray, beta_idx: np.ndarray) -> np.ndarray:
            return kernel.scores(groups[rows], beta_idx)

        count = draws.count if isinstance(draws, DrawSpan) else np.size(draws)
        if count != groups.size * self.draws_per_item:
            raise ValueError(
                f"span must cover exactly {self.draws_per_item} draws for each of "
                f"{groups.size} items, got {count}"
            )
        if isinstance(draws, DrawSpan):
            draws = draws.array()  # the items' rows, end to end
        uniforms = np.asarray(draws, dtype=np.float64).reshape(groups.size, -1)
        before = kernel.hits, kernel.evaluations
        result = self._run_chain(groups.size, kernel.n_obs, uniforms, provider)
        self._count(kernel, before)
        return result

    def score_chain_nodes(
        self, uvalues: np.ndarray, nodes, want_steps: bool = True, grid: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """The chain over every candidate of a batch of tree nodes, in one
        call of this scorer's native kernels
        (:func:`repro.scoring.kernel.run_chains`; ``uvalues``
        is the batch's universe of parent values, ``nodes`` its
        :class:`~repro.scoring.kernel.ChainNode` list).  Returns the flat
        ``(log_scores, steps, accepted)`` of the nodes' candidates, node
        after node — per node what :meth:`score_batch_kernel` returns,
        ``steps`` ``None`` unless ``want_steps`` — and adds per node what
        its NumPy chain would have counted, with the call's margin-table
        traffic, to :attr:`counters` (the same with or without steps).
        With ``grid`` it is :meth:`score_grid_best_kernel`'s search instead
        (spanless nodes, no steps)."""
        best_score, steps, _best_idx, bounds, counters, table = run_chains(
            self.native, uvalues, self.beta_grid, nodes, self.max_steps,
            self.stop_repeats, want_idx=False, want_steps=want_steps, grid=grid,
        )
        merge_counters(self.counters, chain_counters(counters, table))
        accepted = np.empty(best_score.size, dtype=bool)
        for node, lo, hi in zip(nodes, bounds, bounds[1:]):
            accepted[lo:hi] = _beats_baseline(best_score[lo:hi], node.obs.size)
        return best_score, steps, accepted

    def _run_chain(self, n_items, n_obs, uniforms, provider):
        """The Metropolis-chain driver over a score ``provider``.

        ``provider(rows, beta_idx)`` returns the quantized log-scores of the
        given batch rows at per-row beta grid indices; the chain logic is
        the seed implementation verbatim.
        """
        grid = self.beta_grid
        n_beta = grid.size
        uniforms = np.asarray(uniforms, dtype=np.float64)

        cur_idx = np.minimum(
            (uniforms[:, 0] * n_beta).astype(np.int64), n_beta - 1
        )
        cur_score = provider(np.arange(n_items, dtype=np.int64), cur_idx)
        best_score = cur_score.copy()
        best_idx = cur_idx.copy()
        steps = np.zeros(n_items, dtype=np.int64)
        rejects = np.zeros(n_items, dtype=np.int64)
        active = np.ones(n_items, dtype=bool)

        for step in range(self.max_steps):
            if not active.any():
                break
            idx_a = np.flatnonzero(active)
            u_prop = uniforms[idx_a, 1 + 2 * step]
            u_acc = uniforms[idx_a, 2 + 2 * step]
            prop = _neighbor(cur_idx[idx_a], u_prop, n_beta)
            prop_score = provider(idx_a, prop)
            accept = np.log(np.maximum(u_acc, 1e-300)) < (
                prop_score - cur_score[idx_a]
            )
            steps[idx_a] += 1

            acc_rows = idx_a[accept]
            cur_idx[acc_rows] = prop[accept]
            cur_score[acc_rows] = prop_score[accept]
            rejects[acc_rows] = 0
            rej_rows = idx_a[~accept]
            rejects[rej_rows] += 1

            improved = acc_rows[cur_score[acc_rows] > best_score[acc_rows]]
            best_score[improved] = cur_score[improved]
            best_idx[improved] = cur_idx[improved]

            active[rej_rows[rejects[rej_rows] >= self.stop_repeats]] = False

        best_score = np.round(best_score / SCORE_QUANTUM) * SCORE_QUANTUM
        return best_score, steps, best_idx, _beats_baseline(best_score, n_obs)

    def _check_kernel(self, kernel: LazySplitKernel) -> None:
        if not np.array_equal(kernel.beta_grid, self.beta_grid):
            raise ValueError("kernel was built for a different beta grid")

    def score_grid_best_kernel(
        self, kernel: LazySplitKernel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deterministic exhaustive variant: the best score over the whole
        beta grid for every candidate of ``kernel`` (no sampling chain).

        Used by the GENOMICA-style learner (Segal et al.), whose split
        search is a deterministic maximization rather than Lemon-Tree's
        posterior sampling.  Returns ``(best_scores, best_beta_idx,
        accepted)``; costs ``O(n_beta * n_obs)`` per *group* — the price the
        sampling chain's early stopping avoids — so duplicate split values
        cost nothing extra.  The oracle of the native grid batch
        (:meth:`score_chain_nodes` with ``grid``).
        """
        self._check_kernel(kernel)
        before = kernel.hits, kernel.evaluations
        groups = kernel.item_groups
        n_items = groups.size
        best = np.full(n_items, -np.inf)
        best_idx = np.zeros(n_items, dtype=np.int64)
        for idx in range(self.beta_grid.size):
            scores = kernel.scores(groups, np.full(n_items, idx, dtype=np.int64))
            improved = scores > best
            best[improved] = scores[improved]
            best_idx[improved] = idx
        self._count(kernel, before)
        return best, best_idx, _beats_baseline(best, kernel.n_obs)


def _beats_baseline(best_score: np.ndarray, n_obs: int) -> np.ndarray:
    """Which quantized scores beat the ``beta = 0`` coin-flip baseline."""
    baseline = _quantize(n_obs * _LOG_HALF)
    return best_score > baseline + SCORE_QUANTUM / 2


def _neighbor(cur: np.ndarray, u: np.ndarray, n_beta: int) -> np.ndarray:
    """Propose a random neighbouring grid index (reflecting at the ends)."""
    step = np.where(u < 0.5, -1, 1)
    prop = cur + step
    prop = np.where(prop < 0, 1, prop)
    prop = np.where(prop >= n_beta, n_beta - 2, prop)
    return prop
