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
from dataclasses import dataclass

import numpy as np

from repro.rng.philox import DrawSpan
from repro.rng.streams import SCORE_QUANTUM
from repro.scoring.kernel import DenseScoreMemo, LazySplitKernel, run_chains

#: Default discrete grid of sigmoid steepness values.
DEFAULT_BETA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

_LOG_HALF = math.log(0.5)


def _quantize(value: float) -> float:
    return round(value / SCORE_QUANTUM) * SCORE_QUANTUM


@dataclass(frozen=True)
class SplitScoreResult:
    """Outcome of scoring one candidate split."""

    log_score: float  # score at the located beta mode (quantized)
    steps: int  # sampling steps consumed, in [1, max_steps]
    beta_index: int  # index into the beta grid of the located mode
    accepted: bool  # beats the beta = 0 baseline -> retained


class SplitScorer:
    """Metropolis chain over a discrete beta grid with early stopping.

    The chain starts at a uniformly random grid point, proposes a uniformly
    random neighbouring grid point each step, accepts with the usual
    Metropolis rule, and stops early after ``stop_repeats`` consecutive
    rejections (stuck at a mode) or ``max_steps`` steps.  Each step consumes
    exactly two uniforms; one more seeds the start, so every split owns
    ``1 + 2 * max_steps`` draws of its indexed stream.
    """

    def __init__(
        self,
        beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID,
        max_steps: int = 10,
        stop_repeats: int = 3,
    ) -> None:
        if max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if stop_repeats < 1:
            raise ValueError("stop_repeats must be at least 1")
        self.beta_grid = np.asarray(beta_grid, dtype=np.float64)
        if self.beta_grid.size < 2:
            raise ValueError("beta grid needs at least two points")
        self.max_steps = int(max_steps)
        self.stop_repeats = int(stop_repeats)

    @property
    def draws_per_item(self) -> int:
        return 1 + 2 * self.max_steps

    # -- vectorized batch path (optimized learner) -----------------------
    def score_batch(
        self, margins: np.ndarray, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Score ``n_items`` splits at once.

        ``margins`` has shape ``(n_items, n_obs)``; ``uniforms`` has shape
        ``(n_items, 1 + 2 * max_steps)`` holding each item's private draws.
        Returns ``(log_scores, steps, beta_indices, accepted)`` arrays whose
        entries are identical to item-by-item :meth:`score_one` calls.

        Each ``(item, beta)`` score is evaluated at most once per batch (the
        chain revisits grid points constantly); the memo used is left on
        ``self.last_memo`` so tests and benchmarks can inspect its
        ``hits`` / ``evaluations`` counters.
        """
        margins = np.asarray(margins, dtype=np.float64)
        n_items, n_obs = margins.shape
        memo = DenseScoreMemo(margins, self.beta_grid)
        self.last_memo = memo
        return self._run_chain(n_items, n_obs, uniforms, memo.scores)

    def score_batch_kernel(
        self,
        kernel: LazySplitKernel,
        uniforms: np.ndarray,
        item_indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`score_batch` on a :class:`LazySplitKernel` — no margins
        matrix is ever materialized, and equal-value duplicate candidates
        share one cached score table.

        ``item_indices`` selects a sub-range of the kernel's candidate
        enumeration (the partitioned backends score ``[row0, row1)`` slices
        of a node); row ``i`` of ``uniforms`` holds the private draws of
        candidate ``item_indices[i]`` — or ``uniforms`` is what
        :meth:`~repro.rng.streams.IndexedStream.items_span` returns for
        those rows: their :class:`~repro.rng.philox.DrawSpan`, which only
        this NumPy path materialises, or the rows end to end.  Results are bit-identical to the
        dense path because the kernel replays its exact float operations.

        A kernel that resolved to the native backend runs the whole chain
        in one certified call (:meth:`LazySplitKernel.run_chain`, a
        one-node batch of the entry :func:`repro.trees.splits.score_nodes`
        scores many nodes with; ``item_indices`` must then ascend by
        parent); :meth:`_run_chain` over :meth:`LazySplitKernel.scores` is
        the oracle it is certified against and the NumPy-backend path.
        """
        self._check_kernel(kernel)
        if kernel.backend == "native":
            best_score, steps, best_idx = kernel.run_chain(
                item_indices, uniforms, self.max_steps, self.stop_repeats
            )
            return best_score, steps, best_idx, _beats_baseline(
                best_score, kernel.n_obs
            )
        if item_indices is None:
            groups = kernel.item_groups
        else:
            groups = kernel.item_groups[np.asarray(item_indices, dtype=np.int64)]

        def provider(rows: np.ndarray, beta_idx: np.ndarray) -> np.ndarray:
            return kernel.scores(groups[rows], beta_idx)

        if isinstance(uniforms, DrawSpan):
            uniforms = uniforms.array()
        # a span, materialised or not, is the items' rows end to end
        uniforms = np.asarray(uniforms, dtype=np.float64).reshape(groups.size, -1)
        return self._run_chain(groups.size, kernel.n_obs, uniforms, provider)

    def score_chain_nodes(
        self, native, uvalues: np.ndarray, nodes
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chain over every candidate of a batch of tree nodes, in one
        native call (:func:`repro.scoring.kernel.run_chains`; ``uvalues``
        is the batch's universe of parent values, ``nodes`` its
        :class:`~repro.scoring.kernel.ChainNode` list).  Returns the flat
        ``(log_scores, steps, accepted)`` of the nodes' candidates, node
        after node — per node what :meth:`score_batch_kernel` returns."""
        best_score, steps, _best_idx, bounds, _counters = run_chains(
            native, uvalues, self.beta_grid, nodes, self.max_steps,
            self.stop_repeats, want_idx=False,
        )
        accepted = np.empty(best_score.size, dtype=bool)
        for node, lo, hi in zip(nodes, bounds, bounds[1:]):
            accepted[lo:hi] = _beats_baseline(best_score[lo:hi], node.obs.size)
        return best_score, steps, accepted

    def _run_chain(self, n_items, n_obs, uniforms, provider):
        """Shared Metropolis-chain driver over a score ``provider``.

        ``provider(rows, beta_idx)`` returns the quantized log-scores of the
        given batch rows at per-row beta grid indices; the chain logic is
        the seed implementation verbatim, so any provider that matches the
        dense scores bit-for-bit yields bit-identical results.
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

    def _scores_at(self, margins: np.ndarray, beta_idx: np.ndarray) -> np.ndarray:
        """Row-wise sigmoid log-likelihood at per-row beta grid indices."""
        beta = self.beta_grid[beta_idx]
        z = margins * beta[:, None]
        # log sigmoid(z) = -log1p(exp(-z)), computed stably for large |z|.
        out = np.where(z > 0, -np.log1p(np.exp(-np.abs(z))), z - np.log1p(np.exp(-np.abs(z))))
        scores = out.sum(axis=1)
        return np.round(scores / SCORE_QUANTUM) * SCORE_QUANTUM

    def score_grid_best(self, margins: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deterministic exhaustive variant: the best score over the whole
        beta grid for every item (no sampling chain).

        Used by the GENOMICA-style learner (Segal et al.), whose split
        search is a deterministic maximization rather than Lemon-Tree's
        posterior sampling.  Returns ``(best_scores, best_beta_idx,
        accepted)``; costs ``O(n_beta * n_obs)`` per item — the price the
        sampling chain's early stopping avoids.
        """
        margins = np.asarray(margins, dtype=np.float64)
        n_items, n_obs = margins.shape
        best = np.full(n_items, -np.inf)
        best_idx = np.zeros(n_items, dtype=np.int64)
        for idx in range(self.beta_grid.size):
            scores = self._scores_at(margins, np.full(n_items, idx, dtype=np.int64))
            improved = scores > best
            best[improved] = scores[improved]
            best_idx[improved] = idx
        return best, best_idx, _beats_baseline(best, n_obs)

    def score_grid_best_kernel(
        self,
        kernel: LazySplitKernel,
        item_indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`score_grid_best` on a :class:`LazySplitKernel`.

        The exhaustive variant benefits most from the kernel: every grid
        point is evaluated for every *group* rather than every candidate,
        so duplicate split values cost nothing extra and no margins matrix
        is built.
        """
        self._check_kernel(kernel)
        if item_indices is None:
            groups = kernel.item_groups
        else:
            groups = kernel.item_groups[np.asarray(item_indices, dtype=np.int64)]
        n_items = groups.size
        best = np.full(n_items, -np.inf)
        best_idx = np.zeros(n_items, dtype=np.int64)
        for idx in range(self.beta_grid.size):
            scores = kernel.scores(groups, np.full(n_items, idx, dtype=np.int64))
            improved = scores > best
            best[improved] = scores[improved]
            best_idx[improved] = idx
        return best, best_idx, _beats_baseline(best, kernel.n_obs)

    # -- scalar path (pure-Python reference) -----------------------------
    def score_one(self, margins: list[float], uniforms: list[float]) -> SplitScoreResult:
        """Scalar twin of :meth:`score_batch` for a single split.

        Uses only ``math`` in its inner loop; decisions agree with the batch
        path because both quantize scores before every comparison.
        """
        grid = self.beta_grid
        n_beta = grid.size
        n_obs = len(margins)

        cur_idx = min(int(uniforms[0] * n_beta), n_beta - 1)
        cur_score = self._score_scalar(margins, grid[cur_idx])
        best_score, best_idx = cur_score, cur_idx
        rejects = 0
        steps = 0
        for step in range(self.max_steps):
            u_prop = uniforms[1 + 2 * step]
            u_acc = uniforms[2 + 2 * step]
            prop = _neighbor_scalar(cur_idx, u_prop, n_beta)
            prop_score = self._score_scalar(margins, grid[prop])
            steps += 1
            if math.log(max(u_acc, 1e-300)) < prop_score - cur_score:
                cur_idx, cur_score = prop, prop_score
                rejects = 0
                if cur_score > best_score:
                    best_score, best_idx = cur_score, cur_idx
            else:
                rejects += 1
                if rejects >= self.stop_repeats:
                    break
        best_score = _quantize(best_score)
        baseline = _quantize(n_obs * _LOG_HALF)
        accepted = best_score > baseline + SCORE_QUANTUM / 2
        return SplitScoreResult(best_score, steps, best_idx, accepted)

    def _score_scalar(self, margins: list[float], beta: float) -> float:
        total = 0.0
        for margin in margins:
            z = beta * margin
            if z > 0:
                total += -math.log1p(math.exp(-z))
            else:
                total += z - math.log1p(math.exp(z))
        return _quantize(total)


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


def _neighbor_scalar(cur: int, u: float, n_beta: int) -> int:
    prop = cur + (-1 if u < 0.5 else 1)
    if prop < 0:
        return 1
    if prop >= n_beta:
        return n_beta - 2
    return prop
