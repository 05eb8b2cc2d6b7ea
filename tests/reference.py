"""Pure-Python reference learner — the test suite's differential oracle.

An independent re-implementation of all three Lemon-Tree tasks against
which :class:`repro.core.learner.LemonTreeLearner` is checked: every scoring
inner loop is deliberately written with plain Python lists and :mod:`math`
(no NumPy vectorisation), while consuming the *same* random streams in the
*same* order, so that for any seed the learned network is identical to the
optimized learner's (``tests/test_consistency.py``,
``tests/test_parent_blocks.py``).  The scalar twins of the package's
vectorised scorers live here too (:func:`score_one`,
:func:`score_node_scalar`, :func:`grid_best_one`,
:func:`log_marginal_scalar`, :func:`compact_labels`), and the oracles of
the package's batched reads and incremental updates (:func:`item_uniforms`,
:func:`rows_delta`).  Shared pieces are
exactly the ones that define the random-stream contract or that are not
scoring:

* the RNG streams and sampling helpers (:mod:`repro.rng`);
* the consensus-clustering task (sequential in the paper, Section 3.2.2;
  measured at about 1% of a yeast-shaped ``learn()`` and a tenth of a
  many-chain GaneSH one, ALGORITHMS.md §18), so its output is trivially
  identical;
* decision quantization (:data:`repro.rng.streams.SCORE_QUANTUM`), which
  absorbs summation-order noise between the two scorers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.consensus import consensus_clusters
from repro.core.config import LearnerConfig
from repro.core.learner import LearnResult
from repro.datatypes import (
    ExpressionMatrix,
    Module,
    ModuleNetwork,
    RegressionTree,
    Split,
    TaskTimes,
    TreeNode,
)
from repro.ganesh.state import ObsClustering
from repro.rng.streams import (
    SCORE_QUANTUM,
    GibbsRandom,
    IndexedStream,
    make_stream,
)
from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior, log_marginal
from repro.scoring.suffstats import StatsArrays
from repro.scoring.split_score import SplitScorer
from repro.trees.parents import accumulate_parent_scores

_SQRT = math.isqrt


def _q(value: float) -> float:
    return round(value / SCORE_QUANTUM) * SCORE_QUANTUM


# ---------------------------------------------------------------------------
# Scalar twins of the vectorised scorers
# ---------------------------------------------------------------------------


def compact_labels(labels: Iterable[int]) -> np.ndarray:
    """Relabel cluster ids to 0..K-1 preserving order of first appearance."""
    out = []
    seen: dict[int, int] = {}
    for label in labels:
        if label not in seen:
            seen[label] = len(seen)
        out.append(seen[label])
    return np.asarray(out, dtype=np.int64)


def log_marginal_scalar(
    count: float,
    total: float,
    sumsq: float,
    prior: NormalGammaPrior = DEFAULT_PRIOR,
) -> float:
    """Pure-``math`` scalar twin of
    :func:`repro.scoring.normal_gamma.log_marginal`; results agree with it
    to floating-point noise, which the decision quantum absorbs."""
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
        - (count / 2.0) * math.log(2.0 * math.pi)
    )


@dataclass(frozen=True)
class SplitScoreResult:
    """Outcome of scoring one candidate split."""

    log_score: float  # score at the located beta mode (quantized)
    steps: int  # sampling steps consumed, in [1, max_steps]
    beta_index: int  # index into the beta grid of the located mode
    accepted: bool  # beats the beta = 0 baseline -> retained


def split_margins(
    values: Sequence[float], signs: Sequence[float], v: float
) -> list[float]:
    """Sigmoid margins of split value ``v`` over a node's parent ``values``:
    ``v - x`` for a left-child observation (sign +1), ``x - v`` for a right
    one (sign -1)."""
    return [signs[k] * (v - values[k]) for k in range(len(values))]


def score_one(
    scorer: SplitScorer, margins: list[float], uniforms: list[float]
) -> SplitScoreResult:
    """Scalar twin of one candidate's chain in
    :meth:`SplitScorer.score_batch_kernel`.

    Uses only ``math`` in its inner loop; decisions agree with the batch
    path because both quantize scores before every comparison.
    """
    grid = scorer.beta_grid
    n_beta = grid.size
    n_obs = len(margins)

    cur_idx = min(int(uniforms[0] * n_beta), n_beta - 1)
    cur_score = _score_scalar(margins, grid[cur_idx])
    best_score, best_idx = cur_score, cur_idx
    rejects = 0
    steps = 0
    for step in range(scorer.max_steps):
        u_prop = uniforms[1 + 2 * step]
        u_acc = uniforms[2 + 2 * step]
        prop = _neighbor_scalar(cur_idx, u_prop, n_beta)
        prop_score = _score_scalar(margins, grid[prop])
        steps += 1
        if math.log(max(u_acc, 1e-300)) < prop_score - cur_score:
            cur_idx, cur_score = prop, prop_score
            rejects = 0
            if cur_score > best_score:
                best_score, best_idx = cur_score, cur_idx
        else:
            rejects += 1
            if rejects >= scorer.stop_repeats:
                break
    best_score = _q(best_score)
    baseline = _q(n_obs * math.log(0.5))
    accepted = best_score > baseline + SCORE_QUANTUM / 2
    return SplitScoreResult(best_score, steps, best_idx, accepted)


def score_node_scalar(
    scorer: SplitScorer,
    values: Sequence[Sequence[float]],
    signs: Sequence[float],
    uniforms: Sequence[Sequence[float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`score_one` over every candidate ``(l, values[l][j])`` of a node,
    parent-major and observation-minor, candidate ``i`` reading
    ``uniforms[i]``: the ``(log_scores, steps, beta_indices, accepted)``
    :meth:`SplitScorer.score_batch_kernel` returns for the node's kernel."""
    candidates = [(row, v) for row in values for v in row]
    assert len(uniforms) == len(candidates)
    results = [
        score_one(scorer, split_margins(row, signs, v), [float(u) for u in draws])
        for (row, v), draws in zip(candidates, uniforms)
    ]
    return (
        np.array([r.log_score for r in results], dtype=np.float64),
        np.array([r.steps for r in results], dtype=np.int64),
        np.array([r.beta_index for r in results], dtype=np.int64),
        np.array([r.accepted for r in results], dtype=bool),
    )


def grid_best_one(scorer: SplitScorer, margins: list[float]) -> tuple[float, int, bool]:
    """Scalar twin of one candidate of :meth:`SplitScorer.score_grid_best_kernel`:
    the best score over the whole beta grid, its grid index, and whether it
    beats the coin-flip baseline."""
    best, best_idx = -math.inf, 0
    for idx, beta in enumerate(scorer.beta_grid):
        score = _score_scalar(margins, beta)
        if score > best:
            best, best_idx = score, idx
    return best, best_idx, best > _q(len(margins) * math.log(0.5)) + SCORE_QUANTUM / 2


def _score_scalar(margins: list[float], beta: float) -> float:
    total = 0.0
    for margin in margins:
        z = beta * margin
        if z > 0:
            total += -math.log1p(math.exp(-z))
        else:
            total += z - math.log1p(math.exp(z))
    return _q(total)


def _neighbor_scalar(cur: int, u: float, n_beta: int) -> int:
    prop = cur + (-1 if u < 0.5 else 1)
    if prop < 0:
        return 1
    if prop >= n_beta:
        return n_beta - 2
    return prop


def item_uniforms(istream: IndexedStream, index: int) -> np.ndarray:
    """The private draws of item ``index``, read alone from the stream's
    ``block``: the oracle of :meth:`~repro.rng.streams.IndexedStream.items_span`."""
    return istream.stream.block(index * istream.draws_per_item, istream.draws_per_item)


def rows_delta(oc: ObsClustering, rows: np.ndarray) -> float:
    """Score change of adding a block of rows to ``oc``, scored from fresh
    statistics: the oracle of :meth:`~repro.ganesh.state.ObsClustering.add_rows`'
    incremental update."""
    grouped = StatsArrays.grouped(np.atleast_2d(rows), oc.labels, oc.n_clusters)
    new = log_marginal(
        oc.stats.count + grouped.count,
        oc.stats.total + grouped.total,
        oc.stats.sumsq + grouped.sumsq,
        oc.prior,
    )
    return float((np.asarray(new) - oc.lm).sum())


# ---------------------------------------------------------------------------
# Pure-Python co-clustering state
# ---------------------------------------------------------------------------


class _RefObsClustering:
    """Scalar-arithmetic twin of :class:`repro.ganesh.state.ObsClustering`."""

    def __init__(self, labels: list[int], prior: NormalGammaPrior) -> None:
        # Compact to 0..K-1 by first appearance (drops empty label bins),
        # mirroring ObsClustering so both learners index clusters alike.
        self.labels = [int(v) for v in compact_labels(labels)]
        self.n_clusters = (max(self.labels) + 1) if self.labels else 0
        self.prior = prior
        self.counts = [0.0] * self.n_clusters
        self.totals = [0.0] * self.n_clusters
        self.sumsqs = [0.0] * self.n_clusters

    @classmethod
    def from_block(
        cls, block: list[list[float]], labels: list[int], prior: NormalGammaPrior
    ) -> "_RefObsClustering":
        oc = cls(labels, prior)
        for row in block:
            for j, value in enumerate(row):
                cid = oc.labels[j]
                oc.counts[cid] += 1.0
                oc.totals[cid] += value
                oc.sumsqs[cid] += value * value
        return oc

    def _lm(self, cid: int) -> float:
        return log_marginal_scalar(
            self.counts[cid], self.totals[cid], self.sumsqs[cid], self.prior
        )

    def score(self) -> float:
        return sum(self._lm(cid) for cid in range(self.n_clusters))

    # -- variable membership -------------------------------------------
    def add_rows(self, rows: list[list[float]]) -> None:
        for row in rows:
            for j, value in enumerate(row):
                cid = self.labels[j]
                self.counts[cid] += 1.0
                self.totals[cid] += value
                self.sumsqs[cid] += value * value

    def remove_rows(self, rows: list[list[float]]) -> None:
        for row in rows:
            for j, value in enumerate(row):
                cid = self.labels[j]
                self.counts[cid] -= 1.0
                self.totals[cid] -= value
                self.sumsqs[cid] -= value * value

    def rows_delta(self, rows: list[list[float]]) -> float:
        add_c = [0.0] * self.n_clusters
        add_t = [0.0] * self.n_clusters
        add_q = [0.0] * self.n_clusters
        for row in rows:
            for j, value in enumerate(row):
                cid = self.labels[j]
                add_c[cid] += 1.0
                add_t[cid] += value
                add_q[cid] += value * value
        delta = 0.0
        for cid in range(self.n_clusters):
            new = log_marginal_scalar(
                self.counts[cid] + add_c[cid],
                self.totals[cid] + add_t[cid],
                self.sumsqs[cid] + add_q[cid],
                self.prior,
            )
            delta += new - self._lm(cid)
        return delta

    # -- observation moves ------------------------------------------------
    def move_obs_scores(self, obs: int, column: list[float]) -> list[float]:
        src = self.labels[obs]
        cc = float(len(column))
        ct = 0.0
        cq = 0.0
        for value in column:
            ct += value
            cq += value * value
        lm_src = self._lm(src)
        rem = (
            log_marginal_scalar(
                self.counts[src] - cc,
                self.totals[src] - ct,
                self.sumsqs[src] - cq,
                self.prior,
            )
            - lm_src
        )
        scores = []
        for cid in range(self.n_clusters):
            if cid == src:
                scores.append(0.0)
            else:
                new = log_marginal_scalar(
                    self.counts[cid] + cc,
                    self.totals[cid] + ct,
                    self.sumsqs[cid] + cq,
                    self.prior,
                )
                scores.append(rem + new - self._lm(cid))
        scores.append(rem + log_marginal_scalar(cc, ct, cq, self.prior))
        return scores

    def move_obs(self, obs: int, target: int, column: list[float]) -> None:
        src = self.labels[obs]
        if target == src:
            return
        cc = float(len(column))
        ct = sum(column)
        cq = sum(v * v for v in column)
        self.counts[src] -= cc
        self.totals[src] -= ct
        self.sumsqs[src] -= cq
        if target == self.n_clusters:
            self.counts.append(cc)
            self.totals.append(ct)
            self.sumsqs.append(cq)
            self.labels[obs] = self.n_clusters
            self.n_clusters += 1
        else:
            self.counts[target] += cc
            self.totals[target] += ct
            self.sumsqs[target] += cq
            self.labels[obs] = target
        if self.counts[src] <= 0:
            self._drop(src)

    def merge_obs_scores(self, cluster: int) -> list[float]:
        lm_c = self._lm(cluster)
        scores = []
        for cid in range(self.n_clusters):
            if cid == cluster:
                scores.append(0.0)
            else:
                merged = log_marginal_scalar(
                    self.counts[cid] + self.counts[cluster],
                    self.totals[cid] + self.totals[cluster],
                    self.sumsqs[cid] + self.sumsqs[cluster],
                    self.prior,
                )
                scores.append(merged - self._lm(cid) - lm_c)
        return scores

    def merge_obs(self, cluster: int, target: int) -> None:
        if target == cluster:
            return
        self.counts[target] += self.counts[cluster]
        self.totals[target] += self.totals[cluster]
        self.sumsqs[target] += self.sumsqs[cluster]
        self.labels = [
            target if lab == cluster else lab for lab in self.labels
        ]
        self._drop(cluster)

    def _drop(self, cluster: int) -> None:
        del self.counts[cluster]
        del self.totals[cluster]
        del self.sumsqs[cluster]
        self.labels = [lab - 1 if lab > cluster else lab for lab in self.labels]
        self.n_clusters -= 1


class _RefCoCluster:
    """Scalar-arithmetic twin of :class:`repro.ganesh.state.CoClusterState`."""

    def __init__(
        self,
        data: list[list[float]],
        var_labels: list[int],
        obs_labels: list[list[int]],
        prior: NormalGammaPrior,
    ) -> None:
        self.data = data
        self.prior = prior
        self.var_labels = list(var_labels)
        n_clusters = (max(self.var_labels) + 1) if self.var_labels else 0
        self.members: list[list[int]] = [[] for _ in range(n_clusters)]
        for var, cid in enumerate(self.var_labels):
            self.members[cid].append(var)
        self.obs: list[_RefObsClustering] = [
            _RefObsClustering.from_block(
                [data[v] for v in self.members[cid]], obs_labels[cid], prior
            )
            for cid in range(n_clusters)
        ]

    @property
    def n_vars(self) -> int:
        return len(self.data)

    @property
    def n_obs(self) -> int:
        return len(self.data[0]) if self.data else 0

    @property
    def n_clusters(self) -> int:
        return len(self.members)

    def move_var_scores(self, var: int) -> list[float]:
        row = self.data[var]
        src = self.var_labels[var]
        src_oc = self.obs[src]
        # removal delta from the source cluster
        rem = 0.0
        add_c = [0.0] * src_oc.n_clusters
        add_t = [0.0] * src_oc.n_clusters
        add_q = [0.0] * src_oc.n_clusters
        for j, value in enumerate(row):
            cid = src_oc.labels[j]
            add_c[cid] += 1.0
            add_t[cid] += value
            add_q[cid] += value * value
        for cid in range(src_oc.n_clusters):
            new = log_marginal_scalar(
                src_oc.counts[cid] - add_c[cid],
                src_oc.totals[cid] - add_t[cid],
                src_oc.sumsqs[cid] - add_q[cid],
                self.prior,
            )
            rem += new - src_oc._lm(cid)

        scores = []
        for cid in range(self.n_clusters):
            if cid == src:
                scores.append(0.0)
            else:
                scores.append(rem + self.obs[cid].rows_delta([row]))
        total = sum(row)
        sumsq = sum(v * v for v in row)
        scores.append(
            rem + log_marginal_scalar(float(len(row)), total, sumsq, self.prior)
        )
        return scores

    def move_var(self, var: int, target: int) -> None:
        src = self.var_labels[var]
        if target == src:
            return
        row = self.data[var]
        self.obs[src].remove_rows([row])
        self.members[src].remove(var)
        if target == self.n_clusters:
            oc = _RefObsClustering.from_block(
                [row], [0] * len(row), self.prior
            )
            self.members.append([var])
            self.obs.append(oc)
            self.var_labels[var] = target
        else:
            self.obs[target].add_rows([row])
            self.members[target].append(var)
            self.var_labels[var] = target
        if not self.members[src]:
            self._drop(src)

    def merge_var_scores(self, cluster: int) -> list[float]:
        block = [self.data[v] for v in self.members[cluster]]
        own = self.obs[cluster].score()
        scores = []
        for cid in range(self.n_clusters):
            if cid == cluster:
                scores.append(0.0)
            else:
                scores.append(self.obs[cid].rows_delta(block) - own)
        return scores

    def merge_var(self, cluster: int, target: int) -> None:
        if target == cluster:
            return
        block = [self.data[v] for v in self.members[cluster]]
        self.obs[target].add_rows(block)
        self.members[target].extend(self.members[cluster])
        for var in self.members[cluster]:
            self.var_labels[var] = target
        self.members[cluster] = []
        self._drop(cluster)

    def _drop(self, cluster: int) -> None:
        del self.members[cluster]
        del self.obs[cluster]
        self.var_labels = [
            lab - 1 if lab > cluster else lab for lab in self.var_labels
        ]


# ---------------------------------------------------------------------------
# The reference learner
# ---------------------------------------------------------------------------


class ReferenceLearner:
    """Same algorithm, same streams, deliberately unvectorised."""

    def __init__(self, config: LearnerConfig | None = None) -> None:
        self.config = config or LearnerConfig()

    def learn(self, matrix: ExpressionMatrix, seed: int) -> LearnResult:
        config = self.config
        data_rows = [list(map(float, row)) for row in matrix.values]

        t0 = time.perf_counter()
        samples = self._task_ganesh(data_rows, seed)
        t1 = time.perf_counter()
        modules_members = consensus_clusters(
            [np.asarray(s) for s in samples],
            threshold=config.consensus_threshold,
            max_clusters=config.max_modules,
        )
        t2 = time.perf_counter()
        modules = self._task_modules(data_rows, modules_members, seed)
        t3 = time.perf_counter()

        network = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
        times = TaskTimes(ganesh=t1 - t0, consensus=t2 - t1, modules=t3 - t2)
        return LearnResult(network=network, task_times=times)

    # -- task 1 -----------------------------------------------------------
    def _task_ganesh(self, data: list[list[float]], seed: int) -> list[list[int]]:
        config = self.config
        n = len(data)
        m = len(data[0]) if data else 0
        samples = []
        for g in range(config.n_ganesh_runs):
            rng = GibbsRandom(
                make_stream(seed, "ganesh", g, backend=config.rng_backend)
            )
            k0 = config.resolve_init_clusters(n)
            var_labels = [int(v) for v in compact_labels(rng.random_labels(n, k0))]
            n_clusters = max(var_labels) + 1
            sqrt_m = max(1, _SQRT(m))
            obs_labels = [
                [int(v) for v in rng.random_labels(m, sqrt_m)]
                for _ in range(n_clusters)
            ]
            state = _RefCoCluster(data, var_labels, obs_labels, config.prior)
            for _ in range(config.n_update_steps):
                self._reassign_var_sweep(state, rng)
                self._merge_var_sweep(state, rng)
                for cid in range(state.n_clusters):
                    block = [data[v] for v in state.members[cid]]
                    self._reassign_obs_sweep(state.obs[cid], block, rng)
                    self._merge_obs_sweep(state.obs[cid], rng)
            samples.append(list(state.var_labels))
        return samples

    def _reassign_var_sweep(self, state: _RefCoCluster, rng: GibbsRandom) -> None:
        n = state.n_vars
        for _ in range(n):
            var = rng.randint(n)
            scores = state.move_var_scores(var)
            choice = rng.weighted_choice_logs(scores)
            state.move_var(var, choice)

    def _merge_var_sweep(self, state: _RefCoCluster, rng: GibbsRandom) -> None:
        cid = 0
        while cid < state.n_clusters:
            scores = state.merge_var_scores(cid)
            choice = rng.weighted_choice_logs(scores)
            if choice == cid:
                cid += 1
            else:
                state.merge_var(cid, choice)

    def _reassign_obs_sweep(
        self, oc: _RefObsClustering, block: list[list[float]], rng: GibbsRandom
    ) -> None:
        m = len(block[0]) if block else 0
        for _ in range(m):
            obs = rng.randint(m)
            column = [row[obs] for row in block]
            scores = oc.move_obs_scores(obs, column)
            choice = rng.weighted_choice_logs(scores)
            oc.move_obs(obs, choice, column)

    def _merge_obs_sweep(self, oc: _RefObsClustering, rng: GibbsRandom) -> None:
        cid = 0
        while cid < oc.n_clusters:
            scores = oc.merge_obs_scores(cid)
            choice = rng.weighted_choice_logs(scores)
            if choice == cid:
                cid += 1
            else:
                oc.merge_obs(cid, choice)

    # -- task 3 -----------------------------------------------------------
    def _task_modules(
        self, data: list[list[float]], modules_members: list[list[int]], seed: int
    ) -> list[Module]:
        config = self.config
        n_vars = len(data)
        parents = list(config.resolve_candidate_parents(n_vars))
        scorer = SplitScorer(
            beta_grid=config.beta_grid,
            max_steps=config.max_sampling_steps,
            stop_repeats=config.sampling_stop_repeats,
            kernel_backend="numpy",  # score_one is pure Python
        )
        modules = []
        for module_id, members in enumerate(modules_members):
            modules.append(
                self._learn_one_module(
                    data, module_id, list(members), parents, scorer, seed
                )
            )
        return modules

    def _learn_one_module(
        self,
        data: list[list[float]],
        module_id: int,
        members: list[int],
        parents: list[int],
        scorer: SplitScorer,
        seed: int,
    ) -> Module:
        config = self.config
        block = [data[v] for v in members]
        m = len(block[0])
        mrng = GibbsRandom(
            make_stream(seed, "modules", module_id, backend=config.rng_backend)
        )
        istream = IndexedStream(
            make_stream(seed, "splits", module_id, backend=config.rng_backend),
            scorer.draws_per_item,
        )

        # observation-only GaneSH (mirrors run_obs_only_ganesh)
        sqrt_m = max(1, _SQRT(m))
        labels = [int(v) for v in mrng.random_labels(m, sqrt_m)]
        oc = _RefObsClustering.from_block(block, labels, config.prior)
        samples: list[list[int]] = []
        for step in range(1, config.tree_update_steps + 1):
            self._reassign_obs_sweep(oc, block, mrng)
            self._merge_obs_sweep(oc, mrng)
            if step > config.tree_burn_in or (
                step == config.tree_update_steps and not samples
            ):
                samples.append(list(oc.labels))

        trees = [
            self._build_tree(block, labels, module_id, config.prior)
            for labels in samples
        ]

        module = Module(module_id=module_id, members=list(members), trees=trees)
        split_base = 0
        all_weighted: list[Split] = []
        all_uniform: list[Split] = []
        for tree in trees:
            for node in tree.internal_nodes():
                weighted, uniform, n_splits = self._score_and_select_node(
                    data, node, parents, scorer, istream, split_base, mrng
                )
                split_base += n_splits
                node.weighted_splits = weighted
                node.uniform_splits = uniform
                all_weighted.extend(weighted)
                all_uniform.extend(uniform)
        module.weighted_parents = accumulate_parent_scores(all_weighted)
        module.uniform_parents = accumulate_parent_scores(all_uniform)
        return module

    # -- tree building (mirrors repro.trees.hierarchy) ---------------------
    def _build_tree(
        self,
        block: list[list[float]],
        obs_labels: list[int],
        module_id: int,
        prior: NormalGammaPrior,
    ) -> RegressionTree:
        n_clusters = max(obs_labels) + 1 if obs_labels else 0
        leaves = []
        for cid in range(n_clusters):
            obs = [j for j, lab in enumerate(obs_labels) if lab == cid]
            if not obs:
                continue
            total = 0.0
            count = 0
            for row in block:
                for j in obs:
                    total += row[j]
                    count += 1
            mean = _q(total / count)
            leaves.append((mean, obs[0], obs))
        leaves.sort(key=lambda item: (item[0], item[1]))

        next_id = 0
        subtrees: list[TreeNode] = []
        stats: list[tuple[float, float, float]] = []
        for _, _, obs in leaves:
            subtrees.append(
                TreeNode(node_id=next_id, observations=np.asarray(sorted(obs)))
            )
            cc = 0.0
            ct = 0.0
            cq = 0.0
            for row in block:
                for j in obs:
                    value = row[j]
                    cc += 1.0
                    ct += value
                    cq += value * value
            stats.append((cc, ct, cq))
            next_id += 1

        while len(subtrees) > 1:
            best, best_score = 0, -math.inf
            merged_cache = []
            for i in range(len(subtrees) - 1):
                a, b = stats[i], stats[i + 1]
                merged = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                merged_cache.append(merged)
                score = _q(
                    log_marginal_scalar(*merged, prior)
                    - log_marginal_scalar(*a, prior)
                    - log_marginal_scalar(*b, prior)
                )
                if score > best_score:
                    best, best_score = i, score
            left, right = subtrees[best], subtrees[best + 1]
            parent = TreeNode(
                node_id=next_id,
                observations=np.asarray(
                    sorted(list(left.observations) + list(right.observations))
                ),
                left=left,
                right=right,
            )
            next_id += 1
            subtrees[best : best + 2] = [parent]
            stats[best : best + 2] = [merged_cache[best]]

        return RegressionTree(module_id=module_id, root=subtrees[0])

    # -- split scoring and selection ----------------------------------------
    def _score_and_select_node(
        self,
        data: list[list[float]],
        node: TreeNode,
        parents: Sequence[int],
        scorer: SplitScorer,
        istream: IndexedStream,
        split_base: int,
        mrng: GibbsRandom,
    ) -> tuple[list[Split], list[Split], int]:
        config = self.config
        obs = [int(o) for o in node.observations]
        assert node.left is not None
        left = set(int(o) for o in node.left.observations)
        signs = [1.0 if o in left else -1.0 for o in obs]
        n_obs = len(obs)

        n_splits = len(parents) * n_obs
        scored, _steps, _beta_idx, kept = score_node_scalar(
            scorer,
            [[data[parent][o] for o in obs] for parent in parents],
            signs,
            [item_uniforms(istream, split_base + i) for i in range(n_splits)],
        )
        log_scores: list[float] = scored.tolist()
        accepted: list[bool] = kept.tolist()

        # posterior normalization over retained splits (mirrors
        # repro.trees.splits.node_posteriors)
        posteriors = [0.0] * n_splits
        retained = [i for i in range(n_splits) if accepted[i]]
        if retained:
            peak = max(log_scores[i] for i in retained)
            weights = [math.exp(log_scores[i] - peak) for i in retained]
            total = sum(weights)
            for i, w in zip(retained, weights):
                posteriors[i] = w / total

        def make_split(local: int) -> Split:
            parent = parents[local // n_obs]
            value = data[parent][obs[local % n_obs]]
            return Split(
                parent=int(parent),
                value=float(value),
                node_id=node.node_id,
                posterior=float(posteriors[local]),
                n_obs=n_obs,
            )

        weighted: list[Split] = []
        uniform: list[Split] = []
        any_retained = bool(retained)
        for _ in range(config.n_splits_per_node):
            if any_retained:
                log_weights = [
                    math.log(p) if p > 0 else -math.inf for p in posteriors
                ]
                weighted.append(make_split(mrng.weighted_choice_logs(log_weights)))
            uniform.append(make_split(mrng.randint(n_splits)))
        return weighted, uniform, n_splits
