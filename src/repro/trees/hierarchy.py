"""Bayesian hierarchical agglomerative merging of observation clusters.

Builds the binary regression-tree structure for a module (Algorithm 4,
lines 10-18): leaf nodes are the observation clusters sampled by the
constrained GaneSH run; the ordered list of subtrees is repeatedly reduced
by merging the *consecutive* pair with the maximal Bayesian merge score,
until a single root holds all observations.

The merge score of subtrees ``a`` and ``b`` is the decomposable Bayesian
criterion ``logml(a + b) - logml(a) - logml(b)`` over the module's pooled
values at the subtrees' observations, where ``logml`` is the normal-gamma
marginal likelihood — the simplified Bayesian hierarchical clustering of
Heller & Ghahramani used by Michoel et al. 2007.  The argmax is
deterministic (first maximum), matching the all-reduce max of the parallel
algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes import RegressionTree, TreeNode
from repro.rng.streams import SCORE_QUANTUM
from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior
from repro.scoring.suffstats import SuffStats


def leaf_order(block: np.ndarray, obs_labels: np.ndarray) -> list[np.ndarray]:
    """Leaves (observation index arrays) ordered by block mean.

    The agglomeration merges *consecutive* subtrees, so the initial order
    matters; ordering leaves by their mean pooled expression puts similar
    response levels next to each other (ties break on smallest observation
    index, keeping the order deterministic).
    """
    obs_labels = np.asarray(obs_labels, dtype=np.int64)
    n_clusters = int(obs_labels.max()) + 1 if obs_labels.size else 0
    leaves = []
    for cid in range(n_clusters):
        obs = np.flatnonzero(obs_labels == cid)
        if obs.size == 0:
            continue
        # Quantize the sort key so the vectorized and pure-Python learners
        # order leaves identically despite summation-order noise.
        mean = round(float(block[:, obs].mean()) / SCORE_QUANTUM) * SCORE_QUANTUM
        leaves.append((mean, int(obs[0]), obs))
    leaves.sort(key=lambda item: (item[0], item[1]))
    return [obs for _, _, obs in leaves]


def build_tree_structure(
    block: np.ndarray,
    obs_labels: np.ndarray,
    module_id: int,
    prior: NormalGammaPrior = DEFAULT_PRIOR,
    hooks=None,
) -> RegressionTree:
    """Agglomerate one sampled observation clustering into a binary tree.

    ``block`` holds the module's rows; ``obs_labels`` is one clustering
    sampled by :func:`repro.ganesh.coclustering.run_obs_only_ganesh`.
    ``hooks``, when given, receives one ``(phase, costs, n_collectives)``
    record per merge round — the parallel algorithm computes merge scores
    block-distributed and reduces the max (Algorithm 4, lines 13-17).
    """
    block = np.atleast_2d(np.asarray(block, dtype=np.float64))
    leaves = leaf_order(block, obs_labels)

    next_id = 0
    subtrees: list[TreeNode] = []
    stats: list[SuffStats] = []
    for obs in leaves:
        subtrees.append(TreeNode(node_id=next_id, observations=np.sort(obs)))
        stats.append(SuffStats.of(block[:, obs]))
        next_id += 1

    # Each subtree's marginal and each adjacent pair's merged statistics,
    # marginal and merge score are kept across rounds: a merge recomputes
    # only the (at most two) pairs that touch the new subtree, with the same
    # scalar ``log_marginal`` calls on the same statistics as a full rescan.
    lms = [s.log_marginal(prior) for s in stats]
    merged_stats = [stats[i].add(stats[i + 1]) for i in range(len(stats) - 1)]
    merged_lms = [s.log_marginal(prior) for s in merged_stats]
    merge_scores = [
        merged_lms[i] - lms[i] - lms[i + 1] for i in range(len(merged_lms))
    ]
    while len(subtrees) > 1:
        if hooks is not None and getattr(hooks, "record", None) is not None:
            hooks.emit(
                "modules.tree_merge",
                np.ones(len(merge_scores), dtype=np.float64),
                n_collectives=2,  # all-reduce max + bcast of the merged pair
            )
        # Quantized argmax: tie-robust across implementations; first maximum
        # wins, matching the deterministic all-reduce max of Algorithm 4.
        quantized = np.round(np.array(merge_scores) / SCORE_QUANTUM) * SCORE_QUANTUM
        best = int(np.argmax(quantized))
        left, right = subtrees[best], subtrees[best + 1]
        parent = TreeNode(
            node_id=next_id,
            observations=np.sort(
                np.concatenate([left.observations, right.observations])
            ),
            left=left,
            right=right,
        )
        next_id += 1
        subtrees[best : best + 2] = [parent]
        stats[best : best + 2] = [merged_stats[best]]
        lms[best : best + 2] = [merged_lms[best]]
        del merged_stats[best], merged_lms[best], merge_scores[best]
        # The pairs on either side of the new subtree: (best - 1, best) and
        # (best, best + 1) in the shortened list.
        for i in (best - 1, best):
            if 0 <= i < len(merge_scores):
                merged_stats[i] = stats[i].add(stats[i + 1])
                merged_lms[i] = merged_stats[i].log_marginal(prior)
                merge_scores[i] = merged_lms[i] - lms[i] - lms[i + 1]

    return RegressionTree(module_id=module_id, root=subtrees[0])
