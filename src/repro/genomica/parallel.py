"""SPMD parallelization of the GENOMICA-style learner.

The paper's conclusions (Section 6) propose extending its parallel
components to "develop a parallel solution for GENOMICA that scales to
thousands of cores" — the earlier parallelizations (Liu et al. 2005:
29.3x on 32 cores; Jiang et al. 2006: 3.5x on 4 threads) being the state
of the art for that lineage.  This module is that extension, built from
exactly the components the paper proposes to reuse:

* the parallel observation-clustering sweeps of Algorithm 2
  (:func:`repro.parallel.engine.p_reassign_obs_sweep` /
  :func:`p_merge_obs_sweep`) drive the M-step's per-module clustering;
* the E-step is a synchronous update, so variables are block-distributed
  and the new assignment is all-gathered — identical results for any
  rank count;
* the final best-split search gives each rank a block of the candidate
  parents of each node and all-gathers the deterministic grid scores,
  which concatenate in rank order into the node's parent-major list.

The consistency guarantee carries over: for any ``p`` the learned network
is bit-identical to :class:`repro.genomica.learner.GenomicaLearner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LearnerConfig
from repro.core.learner import _require_complete
from repro.datatypes import ExpressionMatrix, Module, ModuleNetwork, Split
from repro.ganesh.state import ObsClustering
from repro.genomica.learner import GenomicaLearner, select_best_split
from repro.parallel.comm import run_spmd
from repro.parallel.costmodel import block_range
from repro.parallel.engine import _RankWork, p_merge_obs_sweep, p_reassign_obs_sweep
from repro.rng.streams import GibbsRandom, make_stream
from repro.scoring.split_score import SplitScorer
from repro.trees.hierarchy import build_tree_structure
from repro.trees.parents import accumulate_parent_scores
from repro.trees.splits import node_kernel


@dataclass
class ParallelGenomicaResult:
    network: ModuleNetwork
    n_iterations: int
    converged: bool
    score_history: list[float]
    work_per_rank: np.ndarray
    stats: dict = field(default_factory=dict)


class ParallelGenomicaLearner(GenomicaLearner):
    """GENOMICA on ``p`` SPMD ranks."""

    def learn_parallel(
        self, matrix: ExpressionMatrix, seed: int, p: int
    ) -> ParallelGenomicaResult:
        _require_complete(matrix)
        config = self.config
        scorer = SplitScorer(
            beta_grid=config.beta_grid, max_steps=1,
            kernel_backend=config.parallel.kernel_backend,
        )
        # resolved here: a failure raises, not p ranks
        scorer.native  # noqa: B018
        parents = np.asarray(
            LearnerConfig(candidate_parents=config.candidate_parents)
            .resolve_candidate_parents(matrix.n_vars),
            dtype=np.int64,
        )
        rank_results = run_spmd(p, self._rank_main, matrix, seed, scorer, parents)
        networks = [r[0] for r in rank_results]
        for rank, net in enumerate(networks[1:], start=1):
            if net.signature() != networks[0].signature():
                raise AssertionError(
                    f"rank {rank} diverged from rank 0 — replication broken"
                )
        first = rank_results[0]
        return ParallelGenomicaResult(
            network=first[0],
            n_iterations=first[1],
            converged=first[2],
            score_history=first[3],
            work_per_rank=np.array([r[4] for r in rank_results]),
            stats={"p": p},
        )

    # -- rank body -----------------------------------------------------------
    def _rank_main(
        self, comm, matrix: ExpressionMatrix, seed: int, scorer: SplitScorer, parents
    ):
        config = self.config
        data = matrix.values
        n, m = data.shape
        k = min(config.n_modules, n)
        rng = GibbsRandom(make_stream(seed, "genomica", backend=config.rng_backend))
        work = _RankWork()

        assignment = rng.random_labels(n, k)
        self._fill_empty_modules(assignment, k, rng)

        history: list[float] = []
        converged = False
        iterations = 0
        for iteration in range(config.max_iterations):
            iterations = iteration + 1
            # Parallel M-step: the observation sweeps block-distribute the
            # candidate scoring (Algorithm 2 components).
            leaf_partitions = []
            for module_id in range(k):
                members = np.flatnonzero(assignment == module_id)
                block = data[members]
                mrng = GibbsRandom(
                    make_stream(
                        seed, "genomica-tree", iteration, module_id,
                        backend=config.rng_backend,
                    )
                )
                labels = self._p_obs_clustering(comm, block, mrng, work)
                leaf_partitions.append(
                    [
                        np.flatnonzero(labels == cid)
                        for cid in range(int(labels.max()) + 1)
                    ]
                )

            # Parallel E-step: block-distributed synchronous reassignment.
            lo, hi = block_range(n, comm.size, comm.rank)
            local_assign, local_score = self._reassign(
                data, assignment, leaf_partitions, var_range=(lo, hi)
            )
            work.add(
                (hi - lo) * sum(len(lv) for lv in leaf_partitions) * m / max(1, k)
            )
            new_assignment = comm.allgather_concat(local_assign).astype(np.int64)
            score = float(comm.allreduce(local_score))
            history.append(score)
            if np.array_equal(new_assignment, assignment):
                converged = True
                break
            assignment = new_assignment
            self._fill_empty_modules(assignment, k, rng)

        network = self._p_build_network(
            comm, matrix, assignment, k, parents, scorer, seed, work
        )
        return network, iterations, converged, history, work.units

    def _p_obs_clustering(self, comm, block: np.ndarray, mrng: GibbsRandom, work):
        """Parallel twin of the constrained GaneSH run used by the M-step.

        Mirrors ``run_obs_only_ganesh(block, mrng, T, burn_in=T-1)``: same
        initialization draws, same per-iteration oracle calls, so the
        resulting clustering is identical to the sequential learner's.
        """
        config = self.config
        block = np.atleast_2d(block)
        m = block.shape[1]
        labels = mrng.random_labels(m, max(1, math.isqrt(m)))
        oc = ObsClustering.from_block(block, labels, config.prior)
        for _ in range(config.tree_update_steps):
            p_reassign_obs_sweep(comm, oc, block, mrng, work)
            p_merge_obs_sweep(comm, oc, mrng, work)
        return oc.labels.copy()

    def _p_build_network(
        self, comm, matrix, assignment, k, parents, scorer, seed, work
    ) -> ModuleNetwork:
        """Final trees with block-distributed best-split search."""
        config = self.config
        data = matrix.values
        modules = []
        for module_id in range(k):
            members = [int(v) for v in np.flatnonzero(assignment == module_id)]
            if not members:
                modules.append(Module(module_id=module_id, members=[]))
                continue
            block = data[members]
            mrng = GibbsRandom(
                make_stream(seed, "genomica-final", module_id, backend=config.rng_backend)
            )
            labels = self._p_obs_clustering(comm, block, mrng, work)
            tree = build_tree_structure(block, labels, module_id, config.prior)
            selected: list[Split] = []
            lo, hi = block_range(parents.size, comm.size, comm.rank)
            for node in tree.internal_nodes():
                if hi > lo:
                    kernel = node_kernel(data, node, parents[lo:hi], scorer)
                    local_scores, _beta, local_acc = scorer.score_grid_best_kernel(kernel)
                    work.add(float(scorer.beta_grid.size * kernel.n_obs * kernel.n_items))
                else:
                    local_scores = np.zeros(0)
                    local_acc = np.zeros(0, dtype=bool)
                scores = comm.allgather_concat(local_scores)
                accepted = comm.allgather_concat(local_acc.astype(np.int8)).astype(bool)
                # Replicated choice from the gathered flat arrays — the same
                # helper the module runner uses, so every rank picks the
                # identical split.
                split = select_best_split(data, node, parents, scores, accepted)
                if split is not None:
                    selected.append(split)
            module = Module(module_id=module_id, members=members, trees=[tree])
            module.weighted_parents = accumulate_parent_scores(selected)
            modules.append(module)
        return ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
