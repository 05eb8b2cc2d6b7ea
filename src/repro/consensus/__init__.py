"""Consensus clustering of GaneSH variable-cluster ensembles (Section 2.2.2).

The ensemble of variable clusterings sampled by the GaneSH runs is condensed
into a single consensus clustering: the thresholded co-occurrence frequencies
are counted pair by pair (:mod:`repro.consensus.cooccurrence`) and fed to the
spectral clustering procedure of Michoel & Nachtergaele
(:mod:`repro.consensus.spectral`).  As in the paper, this task is always
executed sequentially.  Its cost follows the kept pairs and the
components' sizes: measured, 1.4 ms of a ~0.3 s ``learn()`` on a
120-variable yeast-shaped matrix, 8 ms of ~75 ms on a 128-variable
four-chain GaneSH ensemble, and 0.16 s at 5,716 variables (ALGORITHMS.md
§18).
"""

from repro.consensus.cooccurrence import cooccurrence_pairs
from repro.consensus.spectral import consensus_clusters, spectral_clusters

__all__ = ["cooccurrence_pairs", "spectral_clusters", "consensus_clusters"]
