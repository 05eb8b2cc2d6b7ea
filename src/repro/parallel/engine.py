"""SPMD parallel module-network learner (Algorithms 1-6).

Runs the full Lemon-Tree pipeline as a genuine SPMD program over a
communicator from :mod:`repro.parallel.comm`: every rank holds the complete
data set and a replicated copy of the clustering state (exactly the paper's
data distribution, Section 5.3), score computations are block-partitioned
across ranks, and ranks only exchange data through collectives.

The engine's defining property — inherited from the paper (Section 3) — is
**consistency**: for any processor count ``p`` the learned network is
bit-identical to the sequential :class:`repro.core.learner.LemonTreeLearner`
with the same seed.  Three mechanisms deliver it:

* replicated random streams advanced in lockstep on every rank
  (Section 4.2), so the Select-Unif-Rand / Select-Wtd-Rand oracles agree
  without communicating random bits;
* index-addressed randomness for candidate splits, so a split's sampling
  chain is the same no matter which rank owns its block;
* the gather-based weighted-selection oracle
  (:func:`repro.parallel.primitives.select_wtd_rand_gather`), whose
  floating-point behaviour matches the sequential ``cumsum`` exactly.

Per-rank work is accounted in the same analytic units the trace projection
uses, so the engine's measured imbalance cross-validates the projected one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.consensus import consensus_clusters
from repro.core.config import LearnerConfig
from repro.datatypes import ExpressionMatrix, Module, ModuleNetwork
from repro.ganesh.state import CoClusterState, ObsClustering, _compact
from repro.parallel.comm import run_spmd
from repro.parallel.costmodel import block_range
from repro.parallel.primitives import select_unif_rand, select_wtd_rand_gather
from repro.rng.streams import SCORE_QUANTUM, GibbsRandom, IndexedStream, make_stream
from repro.scoring.split_score import SplitScorer
from repro.scoring.suffstats import SuffStats
from repro.datatypes import RegressionTree, TreeNode
from repro.trees.hierarchy import leaf_order
from repro.trees.parents import accumulate_parent_scores
from repro.trees.splits import (
    NodeSplitScores,
    gather_parent_blocks,
    score_nodes,
    select_node_splits,
)


@dataclass
class ParallelLearnResult:
    """Outcome of one SPMD run."""

    network: ModuleNetwork
    #: analytic work units executed per rank (imbalance cross-check)
    work_per_rank: np.ndarray
    stats: dict = field(default_factory=dict)


class _RankWork:
    """Per-rank analytic work accumulator."""

    __slots__ = ("units",)

    def __init__(self) -> None:
        self.units = 0.0

    def add(self, units: float) -> None:
        self.units += float(units)


def p_reassign_obs_sweep(
    comm, oc: ObsClustering, block: np.ndarray, rng, work: _RankWork
) -> None:
    """Parallel observation reassignment (Algorithm 2, lines 1-11).

    Every rank scores its block of candidate clusters, the gather-based
    weighted oracle picks the move, all ranks apply it to their replicated
    clustering.  Run by Task 1's co-clustering and Task 3's tree
    structures alike.
    """
    n_members, m = block.shape
    for _ in range(m):
        obs = select_unif_rand(rng, m)
        column = block[:, obs]
        k = oc.n_clusters + 1
        lo, hi = block_range(k, comm.size, comm.rank)
        local = oc.move_obs_scores(obs, column, (lo, hi))
        work.add((hi - lo) * (n_members + 1))
        choice = select_wtd_rand_gather(comm, rng, local)
        oc.move_obs(obs, choice, column)


def p_merge_obs_sweep(comm, oc: ObsClustering, rng, work: _RankWork) -> None:
    """Parallel observation-cluster merging (Algorithm 2, lines 12-20)."""
    cid = 0
    while cid < oc.n_clusters:
        lo, hi = block_range(oc.n_clusters, comm.size, comm.rank)
        local = oc.merge_obs_scores(cid, (lo, hi))
        work.add(hi - lo)
        choice = select_wtd_rand_gather(comm, rng, local)
        if choice == cid:
            cid += 1
        else:
            oc.merge_obs(cid, choice)


class ParallelLearner:
    """The distributed-memory learner."""

    def __init__(self, config: LearnerConfig | None = None) -> None:
        self.config = config or LearnerConfig()

    # -- public API ---------------------------------------------------------
    def learn(self, matrix: ExpressionMatrix, seed: int, p: int) -> ParallelLearnResult:
        """Learn with ``p`` concurrent SPMD ranks (threads), sharing one
        scorer whose kernel backend is resolved before any rank starts."""
        scorer = self._scorer()
        # resolved here: a failure raises, not p ranks
        scorer.native  # noqa: B018
        self.config.resolve_candidate_parents(matrix.n_vars)
        rank_results = run_spmd(p, self._rank_main, matrix, seed, scorer)
        networks = [net for net, _work in rank_results]
        works = np.array([work for _net, work in rank_results])
        # Replicated state must agree everywhere — a hard invariant.
        for rank, net in enumerate(networks[1:], start=1):
            if net.signature() != networks[0].signature():
                raise AssertionError(
                    f"rank {rank} diverged from rank 0 — replication broken"
                )
        return ParallelLearnResult(
            network=networks[0],
            work_per_rank=works,
            stats={"p": p, "total_work": float(works.sum())},
        )

    def _scorer(self) -> SplitScorer:
        config = self.config
        return SplitScorer(
            beta_grid=config.beta_grid,
            max_steps=config.max_sampling_steps,
            stop_repeats=config.sampling_stop_repeats,
            kernel_backend=config.parallel.kernel_backend,
        )

    # -- rank body ------------------------------------------------------------
    def _rank_main(self, comm, matrix: ExpressionMatrix, seed: int, scorer: SplitScorer):
        config = self.config
        data = matrix.values
        work = _RankWork()

        samples = self._task_ganesh(comm, data, seed, work)
        modules_members = consensus_clusters(
            samples,
            threshold=config.consensus_threshold,
            max_clusters=config.max_modules,
        )
        modules = self._task_modules(comm, data, modules_members, seed, work, scorer)
        network = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
        return network, work.units

    # -- task 1: group-parallel GaneSH (Section 3.2.1) -------------------------
    def _task_ganesh(self, comm, data: np.ndarray, seed: int, work: _RankWork):
        config = self.config
        n_runs = config.n_ganesh_runs
        if n_runs == 1 or comm.size == 1:
            gcomm, color, groups = comm, 0, 1
        else:
            groups = min(n_runs, comm.size)
            color = comm.rank * groups // comm.size
            gcomm = comm.split(color)

        local_samples: list[tuple[int, np.ndarray]] = []
        for g in range(n_runs):
            if g % groups != color:
                continue
            rng = GibbsRandom(
                make_stream(seed, "ganesh", g, backend=config.rng_backend)
            )
            labels = self._run_ganesh(gcomm, data, rng, work)
            local_samples.append((g, labels))

        if groups == 1:
            gathered = local_samples
        else:
            # Group leaders exchange their runs' samples with everyone.
            parts = comm.allgather(local_samples if gcomm.rank == 0 else [])
            gathered = [item for part in parts for item in part]
        gathered.sort(key=lambda item: item[0])
        return [labels for _g, labels in gathered]

    def _run_ganesh(self, comm, data: np.ndarray, rng: GibbsRandom, work: _RankWork):
        config = self.config
        n, m = data.shape
        k0 = config.resolve_init_clusters(n)
        var_labels = _compact(rng.random_labels(n, k0))
        n_clusters = int(var_labels.max()) + 1
        sqrt_m = max(1, math.isqrt(m))
        obs_labels = [rng.random_labels(m, sqrt_m) for _ in range(n_clusters)]
        state = CoClusterState(data, var_labels, obs_labels, config.prior)

        for _ in range(config.n_update_steps):
            self._p_reassign_var_sweep(comm, state, rng, work)
            self._p_merge_var_sweep(comm, state, rng, work)
            for cluster in list(state.clusters):
                if not cluster.members:
                    continue
                block = data[cluster.members]
                p_reassign_obs_sweep(comm, cluster.obs, block, rng, work)
                p_merge_obs_sweep(comm, cluster.obs, rng, work)
        return state.var_labels.copy()

    # -- parallel sweeps (Algorithms 1 and 2) -----------------------------------
    def _p_reassign_var_sweep(self, comm, state: CoClusterState, rng, work) -> None:
        n = state.n_vars
        m = state.n_obs
        for _ in range(n):
            var = select_unif_rand(rng, n)
            k = state.n_clusters + 1
            lo, hi = block_range(k, comm.size, comm.rank)
            local = state.move_var_scores(var, (lo, hi))
            for cid in range(lo, hi):
                work.add(m + (state.clusters[cid].obs.n_clusters if cid < state.n_clusters else 0))
            choice = select_wtd_rand_gather(comm, rng, local)
            state.move_var(var, choice)

    def _p_merge_var_sweep(self, comm, state: CoClusterState, rng, work) -> None:
        m = state.n_obs
        cid = 0
        while cid < state.n_clusters:
            lo, hi = block_range(state.n_clusters, comm.size, comm.rank)
            local = state.merge_var_scores(cid, (lo, hi))
            for other in range(lo, hi):
                work.add(m + state.clusters[other].obs.n_clusters)
            choice = select_wtd_rand_gather(comm, rng, local)
            if choice == cid:
                cid += 1
            else:
                state.merge_var(cid, choice)

    # -- task 3 -------------------------------------------------------------
    def _task_modules(
        self, comm, data: np.ndarray, modules_members: list[list[int]], seed: int, work,
        scorer: SplitScorer,
    ) -> list[Module]:
        config = self.config
        n_vars = data.shape[0]
        parents = np.asarray(config.resolve_candidate_parents(n_vars), dtype=np.int64)

        # Phase A: tree structures, module by module on all ranks
        # (Algorithm 6, lines 3-4).
        modules: list[Module] = []
        module_rngs: list[GibbsRandom] = []
        for module_id, members in enumerate(modules_members):
            block = data[members]
            mrng = GibbsRandom(
                make_stream(seed, "modules", module_id, backend=config.rng_backend)
            )
            trees = self._p_learn_tree_structs(comm, block, module_id, mrng, work)
            modules.append(Module(module_id=module_id, members=list(members), trees=trees))
            module_rngs.append(mrng)

        # Phase B: one flat candidate-split list over every module, tree and
        # node, block-partitioned (Algorithm 5).
        descriptors = self._node_descriptors(modules)
        node_scores = self._p_score_splits(
            comm, data, descriptors, parents, scorer, seed, work
        )

        # Selection and parent learning, replicated (the gathered posteriors
        # are available on every rank after the all-gather).
        cursor = 0
        for module, mrng in zip(modules, module_rngs):
            all_weighted, all_uniform = [], []
            while cursor < len(descriptors) and descriptors[cursor][0] == module.module_id:
                scores = node_scores[cursor]
                weighted, uniform = select_node_splits(
                    data, scores, mrng, config.n_splits_per_node
                )
                scores.node.weighted_splits = weighted
                scores.node.uniform_splits = uniform
                all_weighted.extend(weighted)
                all_uniform.extend(uniform)
                cursor += 1
            module.weighted_parents = accumulate_parent_scores(all_weighted)
            module.uniform_parents = accumulate_parent_scores(all_uniform)
        return modules

    def _p_learn_tree_structs(
        self, comm, block: np.ndarray, module_id: int, mrng: GibbsRandom, work
    ) -> list[RegressionTree]:
        """Algorithm 4: constrained GaneSH + partitioned agglomeration."""
        config = self.config
        m = block.shape[1]
        labels = mrng.random_labels(m, max(1, math.isqrt(m)))
        oc = ObsClustering.from_block(block, labels, config.prior)
        samples: list[np.ndarray] = []
        for step in range(1, config.tree_update_steps + 1):
            p_reassign_obs_sweep(comm, oc, block, mrng, work)
            p_merge_obs_sweep(comm, oc, mrng, work)
            if step > config.tree_burn_in or (
                step == config.tree_update_steps and not samples
            ):
                samples.append(oc.labels.copy())
        return [
            self._p_build_tree(comm, block, sample, module_id, work)
            for sample in samples
        ]

    def _p_build_tree(
        self, comm, block: np.ndarray, obs_labels: np.ndarray, module_id: int, work
    ) -> RegressionTree:
        """Consecutive-pair agglomeration with a distributed max-reduction."""
        prior = self.config.prior
        leaves = leaf_order(block, obs_labels)
        next_id = 0
        subtrees: list[TreeNode] = []
        stats: list[SuffStats] = []
        for obs in leaves:
            subtrees.append(TreeNode(node_id=next_id, observations=np.sort(obs)))
            stats.append(SuffStats.of(block[:, obs]))
            next_id += 1

        while len(subtrees) > 1:
            n_pairs = len(subtrees) - 1
            lo, hi = block_range(n_pairs, comm.size, comm.rank)
            best_local = (-np.inf, n_pairs)  # (score, index); lower index wins
            merged_cache: dict[int, SuffStats] = {}
            for i in range(lo, hi):
                combined = stats[i].add(stats[i + 1])
                merged_cache[i] = combined
                score = (
                    combined.log_marginal(prior)
                    - stats[i].log_marginal(prior)
                    - stats[i + 1].log_marginal(prior)
                )
                score = round(score / SCORE_QUANTUM) * SCORE_QUANTUM
                if score > best_local[0]:
                    best_local = (score, i)
                work.add(1.0)
            # MAXLOC with lowest rank on ties: blocks ascend with rank, and
            # each rank keeps its first maximum, so this equals the
            # sequential first-argmax over all pairs.
            _score, _rank, best = comm.allreduce_max_with_index(
                best_local[0], best_local[1]
            )
            combined = merged_cache.get(best) or stats[best].add(stats[best + 1])
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
            stats[best : best + 2] = [combined]
        return RegressionTree(module_id=module_id, root=subtrees[0])

    # -- flat split scoring (Algorithm 5) -------------------------------------
    def _node_descriptors(self, modules: list[Module]):
        """Deterministic enumeration of all internal nodes.

        Each entry is a mutable record
        ``[module_id, tree_index, node, obs_base, global_base, n_splits]``
        where ``obs_base`` is the cumulative observation count of earlier
        nodes in the same module (scaled to a split offset once the
        candidate-parent count is known) and the last two fields are filled
        by :meth:`_p_score_splits`.
        """
        descriptors = []
        for module in modules:
            obs_base = 0
            for tree_index, tree in enumerate(module.trees):
                for node in tree.internal_nodes():
                    descriptors.append(
                        [module.module_id, tree_index, node, obs_base, 0, 0]
                    )
                    obs_base += int(node.observations.size)
        return descriptors

    def _p_score_splits(
        self, comm, data, descriptors, parents, scorer: SplitScorer, seed, work
    ) -> list[NodeSplitScores]:
        """Rank ``r`` scores the block ``block_range(P, p, r)`` of the
        candidate parents of every node in one :func:`score_nodes` batch
        (a rank past the last parent scores nothing); the blocks are
        all-gathered and refilled by node offset."""
        config = self.config
        n_parents = parents.size
        n_obs = [int(node.observations.size) for _m, _t, node, *_rest in descriptors]

        # Fill in split counts: each node has n_parents * n_obs candidates.
        global_base = 0
        for desc, n in zip(descriptors, n_obs):
            desc[3] = desc[3] * n_parents  # module-local split base
            desc[4] = global_base
            desc[5] = n_parents * n
            global_base += desc[5]

        lo, hi = block_range(n_parents, comm.size, comm.rank)
        module_streams: dict[int, IndexedStream] = {}
        nodes = []
        for (module_id, _tree, node, module_base, *_rest), n in zip(descriptors, n_obs):
            if module_id not in module_streams:
                module_streams[module_id] = IndexedStream(
                    make_stream(seed, "splits", module_id, backend=config.rng_backend),
                    scorer.draws_per_item,
                )
            nodes.append((
                node.observations, node.left.observations, module_streams[module_id],
                module_base + lo * n,
            ))
        local = score_nodes(data, parents[lo:hi], scorer, nodes if hi > lo else [])
        # steps x n_obs units per split, as the trace charges them
        units = np.repeat(n_obs, [(hi - lo) * n for n in n_obs])
        work.add(float(units @ local[1]))
        all_scores, all_steps, all_accept = gather_parent_blocks(
            n_obs, n_parents,
            [block_range(n_parents, comm.size, rank) for rank in range(comm.size)],
            comm.allgather(local),
        )

        node_scores: list[NodeSplitScores] = []
        for module_id, tree_index, node, module_base, gbase, n_splits in descriptors:
            node_scores.append(
                NodeSplitScores(
                    module_id=module_id,
                    tree_index=tree_index,
                    node=node,
                    parents=parents,
                    base_index=module_base,
                    log_scores=all_scores[gbase : gbase + n_splits],
                    steps=all_steps[gbase : gbase + n_splits],
                    accepted=all_accept[gbase : gbase + n_splits],
                )
            )
        return node_scores
