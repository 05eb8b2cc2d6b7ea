"""Candidate parent splits: enumeration, posterior scoring, selection.

This is the dominant phase of Lemon-Tree (more than 90% of sequential
run-time in the paper's experiments).  For every internal node ``N`` of
every regression tree of every module, each pair ``(X_l, v)`` of a candidate
parent and a value of ``X_l`` at ``N``'s observations is a candidate split
(Section 2.2.3, step 2).  Splits are identified by a *global index* in the
deterministic enumeration order (module, tree, node, parent, observation);
the index addresses both the split's private randomness
(:class:`repro.rng.streams.IndexedStream`) and its position in the flat
distributed list the parallel algorithm partitions (Algorithm 5, line 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatypes import Split, TreeNode
from repro.rng.streams import GibbsRandom, IndexedStream
from repro.scoring.kernel import (
    ChainNode,
    LazySplitKernel,
    guard_alloc,
    resolve_kernel_backend,
    split_kernel_from_arrays,
    split_sign,
)
from repro.scoring.split_score import SplitScorer


@dataclass
class NodeSplitScores:
    """Scored candidate splits of one internal tree node."""

    module_id: int
    tree_index: int
    node: TreeNode
    parents: np.ndarray  # candidate parent variable indices, shape (P,)
    base_index: int  # global index of this node's first candidate split
    log_scores: np.ndarray  # shape (P * n_obs,), quantized log-scores
    steps: np.ndarray  # sampling steps consumed per split (work driver)
    accepted: np.ndarray  # bool, beats the coin-flip baseline

    @property
    def n_obs(self) -> int:
        return int(self.node.observations.size)

    @property
    def n_splits(self) -> int:
        return int(self.log_scores.size)

    def split_parent(self, local_index: int) -> int:
        return int(self.parents[local_index // self.n_obs])

    def split_value(self, data: np.ndarray, local_index: int) -> float:
        parent = self.split_parent(local_index)
        obs = self.node.observations[local_index % self.n_obs]
        return float(data[parent, obs])

    def work_units(self) -> np.ndarray:
        """Per-split cost: sampling steps x observations at the node."""
        return self.steps.astype(np.float64) * self.n_obs


def margins_from_arrays(
    data: np.ndarray,
    obs: np.ndarray,
    left_obs: np.ndarray,
    parents: np.ndarray,
) -> np.ndarray:
    """Sigmoid margins of the candidate splits of a node given raw arrays.

    ``obs`` are the node's observations, ``left_obs`` its left child's.
    Returns shape ``(P * n_obs, n_obs)``: row ``l * n_obs + j`` holds the
    margins of split ``(parents[l], data[parents[l], obs[j]])``; the margin
    of observation ``o`` is ``v - x_o`` if ``o`` is in the left child and
    ``x_o - v`` otherwise.  Takes plain arrays so process-pool workers can
    rebuild margins without shipping tree objects.
    """
    obs = np.asarray(obs, dtype=np.int64)
    sign = split_sign(obs, left_obs)
    values = data[np.asarray(parents, dtype=np.int64)][:, obs]  # (P, n_obs)
    n_parents, n_obs = values.shape
    guard_alloc(n_parents * n_obs * n_obs, "dense margins matrix")
    # margins[l, j, o] = sign[o] * (values[l, j] - values[l, o])
    margins = sign[None, None, :] * (values[:, :, None] - values[:, None, :])
    return margins.reshape(n_parents * n_obs, n_obs)


def node_margins(data: np.ndarray, node: TreeNode, parents: np.ndarray) -> np.ndarray:
    """Sigmoid margins of all candidate splits at ``node``."""
    assert node.left is not None
    return margins_from_arrays(data, node.observations, node.left.observations, parents)


def node_kernel(
    data: np.ndarray,
    node: TreeNode,
    parents: np.ndarray,
    beta_grid,
) -> LazySplitKernel:
    """Lazy split-scoring kernel over all candidate splits at ``node``.

    The O(P * n_obs) replacement for :func:`node_margins`: the same
    candidate enumeration, but margins are materialized row-chunk by
    row-chunk during scoring instead of all at once.
    """
    assert node.left is not None
    return split_kernel_from_arrays(
        data, node.observations, node.left.observations, parents, beta_grid
    )


def score_nodes(
    data: np.ndarray,
    parents: np.ndarray,
    scorer: SplitScorer,
    nodes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every candidate split of a batch of internal nodes.

    ``nodes`` lists ``(obs, left_obs, istream, base_index)``: a node's
    observations, its left child's, the indexed stream of its module and
    its first split index in it — the node's splits occupy the contiguous
    range ``[base_index, base_index + P * n_obs)``, so their private draws
    are one span of the stream.  Returns flat ``(log_scores, steps,
    accepted)`` arrays, node after node in the canonical parent-major,
    observation-minor order.

    On the native backend, with keyed (Philox) streams, the whole batch is
    one call (:func:`repro.scoring.kernel.run_chains`): the nodes share
    every ``log1p(exp(-|z|))`` row over the union of their observations,
    keep no per-node grouping tables or memo, and the draws are computed
    where the chains read them.  Otherwise the nodes are scored one by one
    through :func:`~repro.scoring.kernel.split_kernel_from_arrays`, bit for
    bit what the batch computes: on the NumPy backend (the NumPy chain)
    and on a stream that hands out the draws themselves (MRG: 51 x 8 B per
    split, so only one node's are held at a time).
    """
    parents = np.asarray(parents, dtype=np.int64)
    if not nodes:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)

    def span(obs, istream, base_index):
        return istream.items_span(base_index, parents.size * len(obs))

    native = resolve_kernel_backend()[1]
    if native is not None and all(
        istream.keyed for _obs, _left_obs, istream, _base in nodes
    ):
        universe = np.unique(np.concatenate([obs for obs, *_rest in nodes]))
        guard_alloc(parents.size * universe.size, "parent-value slice")
        return scorer.score_chain_nodes(
            native,
            data[np.ix_(parents, universe)],
            [
                ChainNode(
                    np.searchsorted(universe, obs),
                    split_sign(obs, left_obs),
                    span(obs, istream, base_index),
                )
                for obs, left_obs, istream, base_index in nodes
            ],
        )
    parts = [
        scorer.score_batch_kernel(
            split_kernel_from_arrays(data, obs, left_obs, parents, scorer.beta_grid),
            span(obs, istream, base_index),
        )
        for obs, left_obs, istream, base_index in nodes
    ]
    log_scores, steps, _beta_idx, accepted = (np.concatenate(field) for field in zip(*parts))
    return log_scores, steps, accepted


def score_node_splits(
    data: np.ndarray,
    module_id: int,
    tree_index: int,
    node: TreeNode,
    parents: np.ndarray,
    scorer: SplitScorer,
    istream: IndexedStream,
    base_index: int,
) -> NodeSplitScores:
    """Score every candidate split of one internal node: a one-node
    :func:`score_nodes` batch (``base_index`` is the node's first global
    split index)."""
    assert node.left is not None
    log_scores, steps, accepted = score_nodes(
        data, parents, scorer,
        [(node.observations, node.left.observations, istream, base_index)],
    )
    return NodeSplitScores(
        module_id=module_id,
        tree_index=tree_index,
        node=node,
        parents=np.asarray(parents, dtype=np.int64),
        base_index=base_index,
        log_scores=log_scores,
        steps=steps,
        accepted=accepted,
    )


def node_posteriors(scores: NodeSplitScores) -> np.ndarray:
    """Normalized posterior probability of each retained split at the node.

    Softmax over the retained (non-zero-posterior) splits; discarded splits
    get exactly 0.  This is the weight used both for the weighted selection
    and for the parent-score aggregation.
    """
    post = np.zeros(scores.n_splits, dtype=np.float64)
    retained = np.flatnonzero(scores.accepted)
    if retained.size == 0:
        return post
    logs = scores.log_scores[retained]
    peak = logs.max()
    weights = np.exp(logs - peak)
    post[retained] = weights / weights.sum()
    return post


def select_node_splits(
    data: np.ndarray,
    scores: NodeSplitScores,
    rng: GibbsRandom,
    n_select: int,
) -> tuple[list[Split], list[Split]]:
    """Select splits for one node (Algorithm 5, lines 8-13).

    ``n_select`` (the paper's ``J``) splits are drawn with probability
    proportional to posterior (skipped entirely when every candidate was
    discarded — there is no posterior to sample from), and another
    ``n_select`` uniformly at random over all candidates (the paper's random
    control set).  Exactly one replicated-stream draw is consumed per
    selected split, keeping all implementations in RNG lockstep; the
    weighted draws share one choice table, built once per node.
    """
    posteriors = node_posteriors(scores)
    weighted: list[Split] = []
    uniform: list[Split] = []
    n_obs = scores.n_obs
    table = None
    if scores.accepted.any():
        table = rng.choice_table(
            np.where(posteriors > 0, np.log(np.maximum(posteriors, 1e-300)), -np.inf)
        )

    def make_split(local_index: int) -> Split:
        return Split(
            parent=scores.split_parent(local_index),
            value=scores.split_value(data, local_index),
            node_id=scores.node.node_id,
            posterior=float(posteriors[local_index]),
            n_obs=n_obs,
        )

    for _ in range(n_select):
        if table is not None:
            weighted.append(make_split(rng.choose(table)))
        uniform.append(make_split(rng.randint(scores.n_splits)))
    return weighted, uniform
