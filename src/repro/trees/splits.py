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
from repro.scoring.kernel import ChainNode, split_kernel_from_arrays, split_sign
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
    steps: np.ndarray | None  # sampling steps per split (work driver); None: not counted
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


def score_nodes(
    data: np.ndarray,
    parents: np.ndarray,
    scorer: SplitScorer,
    nodes,
    want_steps: bool = True,
    grid: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Score every candidate split of a batch of internal nodes.

    ``parents`` may be a block ``[l0, l1)`` of a node list's candidate
    parents (split mode's cut, and the SPMD engine's).  ``nodes`` lists
    ``(obs, left_obs, istream, base_index)``: a node's observations
    (ascending), its left child's, the indexed stream of its module and
    the split index in it of the node's first candidate *of these
    parents* — the node's
    splits here occupy the contiguous range ``[base_index, base_index + P
    * n_obs)``, so their private draws are one span of the stream (for a
    block, ``base_index`` is the node's first split plus ``l0 * n_obs``).
    Returns flat ``(log_scores, steps, accepted)`` arrays, node after node
    in the canonical parent-major, observation-minor order; ``steps`` (8
    bytes a split, read only by a traced run's work units) is ``None``
    unless ``want_steps``.

    On ``scorer``'s native backend the batch is one call of
    :func:`repro.scoring.kernel.run_chains`, whichever generator the
    streams run: each ``(node, parent)`` chain on a scratch memo of the
    call's own, the nodes sharing every ``log1p(exp(-|z|))`` row over the
    union of their observations, the draws computed where the chains read
    them.  On the NumPy backend the nodes are scored one by one through
    :func:`~repro.scoring.kernel.split_kernel_from_arrays`, the oracle the
    batch is certified against, bit for bit.

    With ``grid`` every candidate gets GENOMICA's deterministic best score
    over the beta grid instead of a chain
    (:meth:`~repro.scoring.split_score.SplitScorer.score_grid_best_kernel`):
    a node is ``(obs, left_obs)`` (it draws nothing) and ``steps`` is
    ``None``.
    """
    parents = np.asarray(parents, dtype=np.int64)
    want_steps = want_steps and not grid
    if not nodes:
        steps = np.empty(0, dtype=np.int64) if want_steps else None
        return np.empty(0), steps, np.empty(0, dtype=bool)
    spans = [  # a chain node's address: (istream, base_index)
        None if grid else address[0].items_span(address[1], parents.size * len(obs))
        for obs, _left_obs, *address in nodes
    ]
    if scorer.native is None:
        parts = []
        for (obs, left_obs, *_address), span in zip(nodes, spans):
            kernel = split_kernel_from_arrays(data, obs, left_obs, parents, scorer.beta_grid)
            if grid:
                log_scores, _beta_idx, accepted = scorer.score_grid_best_kernel(kernel)
                steps = None
            else:
                log_scores, steps, _beta_idx, accepted = scorer.score_batch_kernel(kernel, span)
            parts.append((log_scores, steps if want_steps else None, accepted))
        return _join_fields(parts)
    in_batch = np.zeros(data.shape[1], dtype=bool)
    for obs, *_rest in nodes:
        in_batch[obs] = True
    universe = np.flatnonzero(in_batch)
    return scorer.score_chain_nodes(
        data[np.ix_(parents, universe)],
        [
            ChainNode(np.searchsorted(universe, obs), split_sign(obs, left_obs), span)
            for (obs, left_obs, *_address), span in zip(nodes, spans)
        ],
        want_steps,
        grid,
    )


def gather_parent_blocks(n_obs, n_parents: int, blocks, parts) -> tuple:
    """The flat ``(log_scores, steps, accepted)`` of a node list, in the
    canonical order, from the :func:`score_nodes` results ``parts`` of its
    parent blocks ``blocks`` (``[l0, l1)`` each, covering ``[0,
    n_parents)``).  ``n_obs`` lists the nodes' observation counts; a block's
    result holds node after node ``(l1 - l0) * n_obs`` entries, which go
    to the node's offset plus ``l0 * n_obs``.  Steps the blocks did not
    count (``None``) stay ``None``."""
    offsets = np.cumsum([0, *(n_parents * n for n in n_obs)])
    order = np.concatenate([
        np.empty(0, dtype=np.int64),
        *(
            np.arange(offsets[q] + l0 * n, offsets[q] + l1 * n)
            for l0, l1 in blocks
            for q, n in enumerate(n_obs)
        ),
    ])
    out = []
    for values in _join_fields(parts):
        if values is not None:
            flat = np.empty(offsets[-1], dtype=values.dtype)
            flat[order] = values
            values = flat
        out.append(values)
    return tuple(out)


def _join_fields(parts) -> tuple:
    """``(log_scores, steps, accepted)`` parts joined field by field; a field
    no part holds (``None``: steps not counted) stays ``None``."""
    return tuple(
        None if field[0] is None else np.concatenate(field) for field in zip(*parts)
    )


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


def node_posteriors(scores: NodeSplitScores) -> tuple[np.ndarray, np.ndarray]:
    """Normalized posterior probability of the retained splits at the node.

    Returns ``(retained, post)``: the ascending local indices of the
    splits that beat the coin-flip baseline and their softmax weights over
    one another; every discarded split's posterior is exactly 0.  This is
    the weight used both for the weighted selection and for the
    parent-score aggregation.
    """
    retained = np.flatnonzero(scores.accepted)
    if retained.size == 0:
        return retained, np.empty(0, dtype=np.float64)
    logs = scores.log_scores[retained]
    weights = np.exp(logs - logs.max())
    return retained, weights / weights.sum()


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
    weighted draws share one choice table, built once per node over the
    retained splits only (a discarded split weighs 0 and is never drawn,
    so the table draws what one over all ``n_splits`` would).
    """
    retained, post = node_posteriors(scores)
    weighted: list[Split] = []
    uniform: list[Split] = []
    n_obs = scores.n_obs
    table = None
    if retained.size:
        table = rng.choice_table(
            np.where(post > 0, np.log(np.maximum(post, 1e-300)), -np.inf),
            positions=retained,
            size=scores.n_splits,
        )

    def make_split(local_index: int) -> Split:
        k = int(np.searchsorted(retained, local_index))
        kept = k < retained.size and retained[k] == local_index
        return Split(
            parent=scores.split_parent(local_index),
            value=scores.split_value(data, local_index),
            node_id=scores.node.node_id,
            posterior=float(post[k]) if kept else 0.0,
            n_obs=n_obs,
        )

    for _ in range(n_select):
        if table is not None:
            weighted.append(make_split(rng.choose(table)))
        uniform.append(make_split(rng.randint(scores.n_splits)))
    return weighted, uniform
