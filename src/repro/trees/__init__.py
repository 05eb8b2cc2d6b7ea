"""Regression-tree learning for modules (Section 2.2.3).

* :mod:`repro.trees.hierarchy` — Bayesian hierarchical agglomerative merging
  of sampled observation clusters into binary regression-tree structures
  (Algorithm 4, lines 10-18).
* :mod:`repro.trees.splits` — enumeration and posterior scoring of candidate
  parent splits, and the weighted/uniform split selection (Algorithm 5).
* :mod:`repro.trees.parents` — aggregation of selected splits into module
  parent scores (Algorithm 6's ``Learn-Parents``).
"""

from repro.trees.hierarchy import build_tree_structure
from repro.trees.parents import accumulate_parent_scores
from repro.trees.splits import (
    NodeSplitScores,
    score_node_splits,
    score_nodes,
    select_node_splits,
)

__all__ = [
    "build_tree_structure",
    "NodeSplitScores",
    "score_node_splits",
    "score_nodes",
    "select_node_splits",
    "accumulate_parent_scores",
]
