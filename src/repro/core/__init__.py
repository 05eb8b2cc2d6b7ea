"""The Lemon-Tree module-network learner.

* :class:`~repro.core.config.LearnerConfig` — all execution parameters of
  the three Lemon-Tree tasks (Section 2.2).
* :class:`~repro.core.learner.LemonTreeLearner` — the optimized sequential
  implementation (NumPy-vectorised), the paper's "our optimized C++
  sequential implementation" and the ``T_1`` baseline of every scaling
  metric.
* :class:`~repro.core.reference.ReferenceLearner` — the pure-Python
  stand-in for the Java *Lemon-Tree* baseline: same algorithm, same RNG
  call sequence, identical networks, deliberately unvectorised inner loops.
* :mod:`~repro.core.output` — JSON and XML writers/readers for learned
  networks.
* :mod:`~repro.core.checkpoints` — the one checkpoint store of resumable
  Tasks 1 and 3.
"""

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LearnResult, LemonTreeLearner
from repro.core.output import network_from_json, network_to_json, network_to_xml
from repro.core.reference import ReferenceLearner

__all__ = [
    "LearnerConfig",
    "ParallelConfig",
    "LemonTreeLearner",
    "LearnResult",
    "ReferenceLearner",
    "network_to_json",
    "network_from_json",
    "network_to_xml",
]
