"""GENOMICA-style module-network learner (Segal et al. 2003/2005).

The paper's related work (Section 1.1) identifies two MoNet-learning
lineages: *GENOMICA*, implementing Segal et al.'s iterative two-step
algorithm, and *Lemon-Tree*, the three-task pipeline the paper
parallelizes.  Earlier parallelizations (Liu et al., Jiang et al.)
targeted GENOMICA only, and the paper's conclusions propose extending its
parallel components to GENOMICA as future work.

This package implements the GENOMICA lineage: a deterministic
expectation-maximization-style loop that alternates (1) learning each
module's regression-tree CPD with the best-scoring split per node and
(2) reassigning every variable to the module whose CPD explains it best.
It shares the scoring substrates (normal-gamma marginal likelihood,
sigmoid split score, tree agglomeration) with the Lemon-Tree pipeline, so
the two approaches are directly comparable on recovery quality and
run-time — the comparison the module-network literature (Joshi et al.
2009, cited by the paper) performs.
"""

from repro.genomica.learner import GenomicaConfig, GenomicaLearner, GenomicaResult

__all__ = [
    "GenomicaConfig",
    "GenomicaLearner",
    "GenomicaResult",
]
