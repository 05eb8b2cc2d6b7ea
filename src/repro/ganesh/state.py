"""Incremental co-clustering state for the GaneSH Gibbs sampler.

The GaneSH score is decomposable: the co-clustering score is the sum of
normal-gamma log marginal likelihoods of the (variable-cluster x
observation-cluster) blocks.  This module maintains per-block sufficient
statistics incrementally so that the score change of any Gibbs move
(reassign / merge, for variables or observations) is computed from the
blocks it touches only:

* moving a variable touches the source and target clusters' blocks and
  costs O(m + L) after a grouped ``bincount`` of the variable's row;
* moving an observation touches two blocks of one cluster and costs
  O(|members| + L);
* merging observation clusters is O(1) per candidate pair because block
  statistics are additive.

All candidate scores are returned as vectors so the Gibbs move is one
``weighted_choice_logs`` call — exactly the shape the parallel algorithm
partitions across ranks (Algorithms 1 and 2 in the paper).
"""

from __future__ import annotations

import math

import numpy as np

from repro.rng.streams import SCORE_QUANTUM
from repro.scoring.normal_gamma import DEFAULT_PRIOR, NormalGammaPrior, gammaln_table, log_marginal
from repro.scoring.suffstats import StatsArrays, SuffStats


class ObsClustering:
    """An observation clustering of one variable cluster's data block.

    ``labels[j]`` is the observation cluster of observation ``j``; block
    statistics pool *all* member variables' values at the block's
    observations (the GaneSH model shares one Gaussian per block).
    ``lm[c]`` is block ``c``'s log marginal likelihood, maintained with the
    statistics: a move rewrites only the blocks it touches, with the values
    the preceding ``*_scores`` call already computed when it covered them.
    """

    def __init__(self, labels: np.ndarray, prior: NormalGammaPrior = DEFAULT_PRIOR) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        self.labels = _compact(labels)
        self.n_clusters = int(self.labels.max()) + 1 if labels.size else 0
        self.prior = prior
        self.stats = StatsArrays(self.n_clusters)
        self.lm = np.zeros(self.n_clusters)
        #: the last scoring call: (move key, lo, n_cands, new marginals,
        #: column stats or None), dropped by every mutation
        self._scored: tuple | None = None

    # -- construction ----------------------------------------------------
    @classmethod
    def from_block(
        cls,
        block: np.ndarray,
        labels: np.ndarray,
        prior: NormalGammaPrior = DEFAULT_PRIOR,
    ) -> "ObsClustering":
        """Build a clustering over ``block`` (rows = member variables)."""
        oc = cls(labels, prior)
        oc.stats = StatsArrays.grouped(block, oc.labels, oc.n_clusters)
        oc.lm = oc.stats.log_marginals(prior)
        return oc

    def copy(self) -> "ObsClustering":
        out = ObsClustering.__new__(ObsClustering)
        out.labels = self.labels.copy()
        out.n_clusters = self.n_clusters
        out.prior = self.prior
        out.stats = self.stats.copy()
        out.lm = self.lm.copy()
        out._scored = None
        return out

    # -- scoring ---------------------------------------------------------
    def score(self) -> float:
        return float(self.lm.sum())

    def _pop_scored(self, key: tuple) -> tuple:
        """The last scoring call's values if it was for move ``key`` (the
        state cannot have changed since: every mutation clears them)."""
        scored, self._scored = self._scored, None
        return scored if scored is not None and scored[0] == key else (key, 0, 0, None, None)

    def _block_lm(self, blocks: list[int]) -> np.ndarray:
        stats = self.stats
        return log_marginal(
            stats.count[blocks], stats.total[blocks], stats.sumsq[blocks], self.prior
        )

    # -- variable membership updates --------------------------------------
    def add_rows(self, rows: np.ndarray, rows_id: object = None) -> None:
        """Account for new member variables (rows of the data block).
        ``rows_id`` names the rows' content; when the last scoring call
        scored this very addition its marginals are adopted, not recomputed."""
        rows = np.atleast_2d(rows)
        self.stats.add_arrays(StatsArrays.grouped(rows, self.labels, self.n_clusters))
        self._rescored(("add", rows_id))

    def remove_rows(self, rows: np.ndarray, rows_id: object = None) -> None:
        rows = np.atleast_2d(rows)
        grouped = StatsArrays.grouped(rows, self.labels, self.n_clusters)
        self.stats.count -= grouped.count
        self.stats.total -= grouped.total
        self.stats.sumsq -= grouped.sumsq
        self._rescored(("remove", rows_id))

    def _rescored(self, key: tuple) -> None:
        new = self._pop_scored(key)[3]
        self.lm = self.stats.log_marginals(self.prior) if new is None else new.copy()

    # -- observation moves -------------------------------------------------
    def column_stats(self, column: np.ndarray) -> SuffStats:
        column = np.asarray(column, dtype=np.float64)
        return SuffStats(
            float(column.size), float(column.sum()), float((column * column).sum())
        )

    def move_obs_scores(
        self,
        obs: int,
        column: np.ndarray,
        candidate_range: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Candidate log-weights for moving observation ``obs``.

        Candidates are the ``n_clusters`` existing clusters followed by the
        fresh-singleton option; the current cluster's entry is 0 (the
        "keep" baseline).  ``column`` holds the member variables' values at
        ``obs``.  With ``candidate_range=(lo, hi)`` only that slice of the
        candidate list is computed — the block a rank owns in the parallel
        algorithm (Algorithm 2, lines 6-8).

        One scoring call covers the candidate blocks with the column added,
        the source block with it removed and the column alone (the fresh
        singleton); the unchanged blocks' marginals come from ``lm``.
        """
        k = self.n_clusters
        lo, hi = candidate_range if candidate_range is not None else (0, k + 1)
        hi_clusters = min(hi, k)
        n_cands = max(hi_clusters - lo, 0)
        src = int(self.labels[obs])
        cs = self.column_stats(column)
        stats = self.stats
        n, s, q = np.empty((3, n_cands + 2))
        for out, have, add in (
            (n, stats.count, cs.count), (s, stats.total, cs.total), (q, stats.sumsq, cs.sumsq)
        ):
            np.add(have[lo:hi_clusters], add, out=out[:n_cands])
            out[n_cands] = have[src] - add
            out[n_cands + 1] = add
        new = log_marginal(n, s, q, self.prior)
        self._scored = (("move", obs), lo, n_cands, new, cs)

        rem_delta = float(new[n_cands]) - float(self.lm[src])
        fresh = lo <= k < hi
        scores = np.empty(n_cands + fresh)
        np.subtract(new[:n_cands], self.lm[lo:hi_clusters], out=scores[:n_cands])
        scores[:n_cands] += rem_delta
        if lo <= src < hi_clusters:
            scores[src - lo] = 0.0
        if fresh:
            scores[n_cands] = rem_delta + float(new[n_cands + 1])
        return scores

    def move_obs(self, obs: int, target: int, column: np.ndarray) -> None:
        """Move ``obs`` to cluster ``target`` (``n_clusters`` = fresh)."""
        src = int(self.labels[obs])
        if target == src:
            return
        _key, lo, n_cands, new, cs = self._pop_scored(("move", obs))
        if cs is None:
            cs = self.column_stats(column)
        fresh = target == self.n_clusters
        self.stats.remove_at(src, cs)
        if fresh:
            self.stats.append(cs)
            self.n_clusters += 1
        else:
            self.stats.add_at(target, cs)
        self.labels[obs] = target
        if new is not None and (fresh or lo <= target < lo + n_cands):
            src_lm, tgt_lm = new[n_cands], new[n_cands + 1 if fresh else target - lo]
        else:
            src_lm, tgt_lm = self._block_lm([src, target])
        if fresh:
            self.lm = np.append(self.lm, tgt_lm)
        else:
            self.lm[target] = tgt_lm
        self.lm[src] = src_lm
        if self.stats.count[src] <= 0:
            self._drop_cluster(src)

    # -- observation-cluster merges -----------------------------------------
    def merge_obs_scores(
        self, cluster: int, candidate_range: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Candidate log-weights for merging ``cluster`` into each other
        cluster; entry ``cluster`` is the "keep" baseline (0).  O(1) per
        candidate because block statistics are additive: one scoring call
        over the merged blocks, the unmerged marginals come from ``lm``.
        ``candidate_range`` restricts computation to one rank's block of
        candidates."""
        lo, hi = candidate_range if candidate_range is not None else (0, self.n_clusters)
        hi = min(hi, self.n_clusters)
        stats = self.stats
        merged = log_marginal(
            stats.count[lo:hi] + stats.count[cluster],
            stats.total[lo:hi] + stats.total[cluster],
            stats.sumsq[lo:hi] + stats.sumsq[cluster],
            self.prior,
        )
        self._scored = (("merge", cluster), lo, max(hi - lo, 0), merged, None)
        scores = merged - self.lm[lo:hi] - float(self.lm[cluster])
        if lo <= cluster < hi:
            scores[cluster - lo] = 0.0
        return scores

    def merge_obs(self, cluster: int, target: int) -> None:
        if target == cluster:
            return
        _key, lo, n_cands, merged, _cs = self._pop_scored(("merge", cluster))
        self.stats.add_at(target, self.stats.block(cluster))
        if merged is not None and lo <= target < lo + n_cands:
            self.lm[target] = merged[target - lo]
        else:
            self.lm[target] = self._block_lm([target])[0]
        self.labels[self.labels == cluster] = target
        self._drop_cluster(cluster)

    def _drop_cluster(self, cluster: int) -> None:
        self.stats.drop(cluster)
        self.lm = np.delete(self.lm, cluster)
        self.labels[self.labels > cluster] -= 1
        self.n_clusters -= 1

    # -- a whole sweep where the marginals are scored ------------------------
    def native_sweep(
        self, native, rng, lgam: np.ndarray, block: np.ndarray | None = None, trace: bool = False
    ) -> list[int]:
        """One observation sweep in a single certified native call.

        With ``block`` it is the reassign sweep of
        :func:`repro.ganesh.coclustering.reassign_obs_sweep`, without it the
        merge sweep: the same moves, statistics, marginals and draws as the
        NumPy loops make through ``move_obs_scores`` / ``merge_obs_scores``,
        applied to ``labels``, ``stats`` and ``lm`` in place (ALGORITHMS.md
        §13).  The stream is moved past the sweep's draws up front — two per
        reassign iteration, one per merge iteration, of which a merge sweep
        always makes ``n_clusters`` — so it ends where the loops leave it;
        the draws themselves go in as a span, which the sweep computes as
        it reads them.  Block
        counts are multiples of the block's row count, so ``gammaln`` is read
        from ``lgam``, the caller's ``gammaln_table(m, prior, rows)`` (a state's
        cluster: :meth:`CoClusterState.obs_lgam`).  With ``trace`` returns the
        cluster count of every iteration (all a recorder's costs depend on).
        """
        m, k = self.labels.size, self.n_clusters
        if m == 0:
            return []
        if block is None:
            rows = int(self.stats.count.sum()) // m
            span = rng.span(k)
        else:
            rows = block.shape[0]
            span = rng.span(2 * m)
        lm = np.empty(m + 1)
        lm[:k] = self.lm
        k, ks = native.obs_sweep(
            block, rows, self.labels, self.stats.reserve(m + 1), lm, k,
            span, lgam, self.prior, SCORE_QUANTUM, trace,
        )
        self.stats.resize(k)
        self.lm = lm[:k].copy()
        self.n_clusters = k
        self._scored = None
        return ks.tolist() if trace else []

    def check_invariants(self, block: np.ndarray) -> None:
        """Verify stats match a fresh recomputation, and the maintained
        marginals a fresh scoring of them bit for bit (testing hook)."""
        fresh = StatsArrays.grouped(np.atleast_2d(block), self.labels, self.n_clusters)
        if not (
            np.allclose(fresh.count, self.stats.count)
            and np.allclose(fresh.total, self.stats.total)
            and np.allclose(fresh.sumsq, self.stats.sumsq)
        ):
            raise AssertionError("observation clustering stats drifted")
        if not np.array_equal(self.lm, self.stats.log_marginals(self.prior)):
            raise AssertionError("maintained block marginals are stale")


class VarCluster:
    """A variable cluster: member variables plus their observation clustering."""

    __slots__ = ("members", "obs")

    def __init__(self, members: list[int], obs: ObsClustering) -> None:
        self.members = members
        self.obs = obs


class CoClusterState:
    """The full two-way co-clustering of an expression matrix."""

    def __init__(
        self,
        data: np.ndarray,
        var_labels: np.ndarray,
        obs_labels_per_cluster: list[np.ndarray],
        prior: NormalGammaPrior = DEFAULT_PRIOR,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.prior = prior
        n, _m = self.data.shape
        var_labels = _compact(np.asarray(var_labels, dtype=np.int64))
        n_clusters = int(var_labels.max()) + 1 if n else 0
        if len(obs_labels_per_cluster) != n_clusters:
            raise ValueError("one observation labelling required per variable cluster")
        self.var_labels = var_labels
        self.clusters: list[VarCluster] = []
        for cid in range(n_clusters):
            members = [int(v) for v in np.flatnonzero(var_labels == cid)]
            oc = ObsClustering(obs_labels_per_cluster[cid], prior)
            oc.stats = StatsArrays.grouped(self.data[members], oc.labels, oc.n_clusters)
            self.clusters.append(VarCluster(members, oc))
        # Every cluster's block marginals in one stacked call: elementwise,
        # so each equals the per-cluster ``stats.log_marginals`` bit for bit.
        ocs = [cluster.obs for cluster in self.clusters]
        if ocs:
            lm = log_marginal(
                *(np.concatenate([getattr(oc.stats, name) for oc in ocs])
                  for name in ("count", "total", "sumsq")),
                prior,
            )
            bounds = np.cumsum([oc.n_clusters for oc in ocs])
            for oc, part in zip(ocs, np.split(lm, bounds)):
                oc.lm = part
        self._lgam: np.ndarray | None = None  # built by the first native sweep

    def copy(self) -> "CoClusterState":
        """An independent state over the same (read-only) data matrix."""
        out = CoClusterState.__new__(CoClusterState)
        out.data = self.data
        out.prior = self.prior
        out.var_labels = self.var_labels.copy()
        out.clusters = [VarCluster(c.members[:], c.obs.copy()) for c in self.clusters]
        out._lgam = self._lgam
        return out

    @property
    def n_vars(self) -> int:
        return self.data.shape[0]

    @property
    def n_obs(self) -> int:
        return self.data.shape[1]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def score(self) -> float:
        return sum(cluster.obs.score() for cluster in self.clusters)

    # -- variable reassignment ------------------------------------------
    def move_var_scores(
        self, var: int, candidate_range: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Candidate log-weights for moving variable ``var``.

        Candidates are the ``n_clusters`` existing clusters followed by the
        fresh-singleton option; the current cluster's entry is the 0
        baseline.  ``candidate_range`` restricts the computation to one
        rank's block of candidates (Algorithm 1, lines 6-8); the removal
        delta (a shared term) is computed by every rank.
        """
        k = self.n_clusters
        lo, hi = candidate_range if candidate_range is not None else (0, k + 1)
        hi_clusters = min(hi, k)
        n_cands = max(hi_clusters - lo, 0)
        row = self.data[var]
        src = int(self.var_labels[var])
        delta, bounds, fresh_lm = self._stacked_lm(
            lo, hi_clusters, row, row * row, var, src
        )

        # Score change of removing the row from its current cluster.
        rem_delta = float(delta[bounds[n_cands] :].sum())
        fresh = lo <= k < hi
        scores = np.empty(n_cands + fresh)
        scores[:n_cands] = rem_delta + np.add.reduceat(
            delta[: bounds[n_cands]], bounds[:n_cands]
        )
        if lo <= src < hi_clusters:
            scores[src - lo] = 0.0
        if fresh:
            # Fresh cluster: one observation cluster holding the whole row.
            scores[n_cands] = rem_delta + fresh_lm
        return scores

    def _stacked_lm(
        self,
        lo: int,
        hi: int,
        col_total: np.ndarray,
        col_sumsq: np.ndarray,
        rows_id: object,
        src: int | None = None,
        n_rows: int = 1,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Every block marginal one Gibbs iteration changes, in one call.

        The blocks of clusters ``[lo, hi)`` with ``n_rows`` rows (column
        sums ``col_total`` / ``col_sumsq``) added, then — for a move out of
        cluster ``src`` — ``src``'s blocks with the rows removed, then the
        block of the rows alone (a move's fresh singleton).  One stacked
        ``bincount`` and one vectorized marginal-likelihood call instead of
        a Python loop over clusters: the same arithmetic per block, so
        results are element-for-element identical to the per-cluster path.  Each
        clustering keeps its new marginals for the move that may follow;
        returns their change against the maintained ones, the clusters'
        block offsets and the fresh block's marginal.
        """
        ocs = [self.clusters[cid].obs for cid in range(lo, hi)]
        if src is not None:
            ocs.append(self.clusters[src].obs)
        bounds = np.zeros(len(ocs) + 1, dtype=np.int64)
        np.cumsum([oc.n_clusters for oc in ocs], out=bounds[1:])
        n_blocks = int(bounds[-1])
        n, s, q = np.zeros((3, n_blocks + 1))
        n[-1], s[-1], q[-1] = n_rows * col_total.size, col_total.sum(), col_sumsq.sum()
        if ocs:
            glabels = np.concatenate([oc.labels + off for oc, off in zip(ocs, bounds)])
            sign = np.ones(n_blocks)
            if src is not None:
                sign[bounds[-2] :] = -1.0
            adds = (
                n_rows * np.bincount(glabels, minlength=n_blocks).astype(np.float64),
                np.bincount(glabels, weights=np.tile(col_total, len(ocs)), minlength=n_blocks),
                np.bincount(glabels, weights=np.tile(col_sumsq, len(ocs)), minlength=n_blocks),
            )
            for out, add, name in zip((n, s, q), adds, ("count", "total", "sumsq")):
                have = np.concatenate([getattr(oc.stats, name) for oc in ocs])
                out[:n_blocks] = have + sign * add
        new = log_marginal(n, s, q, self.prior)
        delta = new[:n_blocks].copy()
        for pos, oc in enumerate(ocs):
            part = slice(bounds[pos], bounds[pos + 1])
            delta[part] -= oc.lm
            removing = src is not None and pos == len(ocs) - 1
            oc._scored = (("remove" if removing else "add", rows_id), 0, 0, new[part], None)
        return delta, bounds, float(new[-1])

    def move_var(self, var: int, target: int) -> None:
        """Move ``var`` to cluster ``target`` (``n_clusters`` = fresh)."""
        src = int(self.var_labels[var])
        if target == src:
            return
        row = self.data[var]
        src_cluster = self.clusters[src]
        src_cluster.obs.remove_rows(row, var)
        src_cluster.members.remove(var)

        if target == self.n_clusters:
            oc = ObsClustering.from_block(
                row[None, :], np.zeros(self.n_obs, dtype=np.int64), self.prior
            )
            self.clusters.append(VarCluster([var], oc))
        else:
            tgt_cluster = self.clusters[target]
            tgt_cluster.obs.add_rows(row, var)
            tgt_cluster.members.append(var)
        self.var_labels[var] = target

        if not src_cluster.members:
            self._drop_cluster(src)

    # -- variable-cluster merges ------------------------------------------
    def merge_var_scores(
        self, cluster: int, candidate_range: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Candidate log-weights for merging ``cluster`` into each other
        cluster (which keeps the absorbing cluster's observation
        partition); entry ``cluster`` is the "keep" baseline.
        ``candidate_range`` restricts computation to one rank's block."""
        lo, hi = candidate_range if candidate_range is not None else (0, self.n_clusters)
        hi = min(hi, self.n_clusters)
        members = self.clusters[cluster].members
        block = self.data[members]
        delta, bounds, _fresh = self._stacked_lm(
            lo, hi, block.sum(axis=0), (block * block).sum(axis=0), tuple(members),
            n_rows=len(members),
        )
        scores = np.add.reduceat(delta, bounds[:-1]) - self.clusters[cluster].obs.score()
        if lo <= cluster < hi:
            scores[cluster - lo] = 0.0
        return scores

    def merge_var(self, cluster: int, target: int) -> None:
        if target == cluster:
            return
        src_cluster = self.clusters[cluster]
        tgt_cluster = self.clusters[target]
        block = self.data[src_cluster.members]
        tgt_cluster.obs.add_rows(block, tuple(src_cluster.members))
        tgt_cluster.members.extend(src_cluster.members)
        for var in src_cluster.members:
            self.var_labels[var] = target
        src_cluster.members = []
        self._drop_cluster(cluster)

    def _drop_cluster(self, cluster: int) -> None:
        del self.clusters[cluster]
        self.var_labels[self.var_labels > cluster] -= 1

    # -- a whole sweep where the marginals are scored ------------------------
    @property
    def lgam(self) -> np.ndarray:
        """``gammaln(alpha0 + t / 2)`` for every block count ``t = 0..n * m``:
        the state's one table, built on first use and shared by its copies,
        read whole by the variable sweeps and strided by :meth:`obs_lgam`."""
        if self._lgam is None:
            self._lgam = gammaln_table(self.n_vars * self.n_obs, self.prior)
        return self._lgam

    def obs_lgam(self, rows: int) -> np.ndarray:
        """``gammaln(alpha0 + rows * t / 2)`` for ``t = 0..m``, what a
        ``rows``-member cluster's observation sweeps read: every ``rows``-th
        entry of :attr:`lgam` (the same arguments, so bit for bit), in O(m)."""
        return np.ascontiguousarray(self.lgam[: rows * self.n_obs + 1 : rows])

    def var_sweep_pack(self, merge: bool = False) -> dict:
        """The state as flat arrays, the layout ``NativeKernels.var_sweep``
        takes (ALGORITHMS.md §13): copies, so a refused sweep leaves the
        state as it was.  A variable sweep never changes an
        observation partition, so every cluster keeps its block count and
        the arrays never grow in place; a reassign sweep gets ``n`` spare
        block slots, one per cluster it could open."""
        n = self.n_vars
        ocs = [cluster.obs for cluster in self.clusters]
        offsets = np.zeros(len(ocs) + 1, dtype=np.int64)
        np.cumsum([oc.n_clusters for oc in ocs], out=offsets[1:])
        n_blocks = int(offsets[-1])
        count, total, sumsq, lm = np.empty((4, n_blocks + (0 if merge else n)))
        for out, parts in (
            (count, [oc.stats.count for oc in ocs]),
            (total, [oc.stats.total for oc in ocs]),
            (sumsq, [oc.stats.sumsq for oc in ocs]),
            (lm, [oc.lm for oc in ocs]),
        ):
            np.concatenate(parts, out=out[:n_blocks])
        return dict(
            data=self.data,
            var_labels=self.var_labels.copy(),
            member_order=np.array(
                [var for cluster in self.clusters for var in cluster.members],
                dtype=np.int64,
            ),
            obs_labels=np.array([oc.labels for oc in ocs], dtype=np.int64),
            offsets=offsets,
            n_blocks=n_blocks,
            stats=(count, total, sumsq),
            lm=lm,
            lgam=self.lgam,
            prior=self.prior,
            quantum=SCORE_QUANTUM,
            merge=merge,
        )

    def native_var_sweep(
        self, native, rng, merge: bool = False, trace: bool = False
    ) -> list[list[int]]:
        """One variable sweep in a single certified native call.

        The reassign sweep of :func:`repro.ganesh.coclustering.
        reassign_var_sweep` or, with ``merge``, the merge sweep: the same
        moves, statistics, marginals and draws as the NumPy loops make
        through ``move_var_scores`` / ``merge_var_scores``.  The state is
        packed once (:meth:`var_sweep_pack`), swept, and unpacked into the
        ``VarCluster`` / ``ObsClustering`` objects it already holds.  The
        stream is moved past the sweep's draws up front — two per reassign
        iteration, of which there are ``n``; one per merge iteration, of
        which there are ``n_clusters`` — so it ends where the loops leave
        it, and the draws go in as a span (computed in the call).  With
        ``trace`` returns, per iteration, the live clusters' observation
        cluster counts (all a recorder's cost vectors depend on), else ``[]``.
        """
        pack = self.var_sweep_pack(merge)
        k0, n_blocks = self.n_clusters, pack["n_blocks"]
        span = rng.span(k0 if merge else 2 * self.n_vars)
        origin, sizes, moves = native.var_sweep(**pack, span=span, trace=trace)

        offsets = pack["offsets"].tolist()
        order = pack["member_order"].tolist()
        entered = self.clusters[:]
        for cluster in entered:
            cluster.members = []  # as the loops leave a merged-away cluster
        del self.clusters[:]
        start = 0
        for slot, size in zip(origin.tolist(), sizes.tolist()):
            members = order[start : start + size]
            start += size
            if slot < k0:
                cluster = entered[slot]
                cluster.members = members
                blocks = slice(offsets[slot], offsets[slot + 1])
            else:  # opened by the sweep: one block holding every observation
                labels = np.zeros(self.n_obs, dtype=np.int64)
                cluster = VarCluster(members, ObsClustering(labels, self.prior))
                blocks = slice(n_blocks + slot - k0, n_blocks + slot - k0 + 1)
            oc = cluster.obs
            for name, packed in zip(("count", "total", "sumsq"), pack["stats"]):
                getattr(oc.stats, name)[:] = packed[blocks]
            oc.lm = pack["lm"][blocks].copy()
            oc._scored = None
            self.clusters.append(cluster)
        self.var_labels[:] = pack["var_labels"]

        if not trace:
            return []
        live = [cluster.obs.n_clusters for cluster in entered]
        steps = []
        for opened, dropped in moves.tolist():
            steps.append(live[:])
            if opened:
                live.append(1)
            if dropped >= 0:
                del live[dropped]
        return steps

    # -- invariants --------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify label/membership/stats consistency (testing hook)."""
        seen: set[int] = set()
        for cid, cluster in enumerate(self.clusters):
            if not cluster.members:
                raise AssertionError(f"empty variable cluster {cid}")
            for var in cluster.members:
                if self.var_labels[var] != cid:
                    raise AssertionError(f"label mismatch for variable {var}")
                if var in seen:
                    raise AssertionError(f"variable {var} in two clusters")
                seen.add(var)
            cluster.obs.check_invariants(self.data[cluster.members])
        if len(seen) != self.n_vars:
            raise AssertionError("not all variables assigned")


def _compact(labels: np.ndarray) -> np.ndarray:
    """Relabel to 0..K-1 by order of first appearance."""
    _, first_idx = np.unique(labels, return_index=True)
    order = labels[np.sort(first_idx)]
    mapping = {int(old): new for new, old in enumerate(order)}
    return np.asarray([mapping[int(v)] for v in labels], dtype=np.int64)


def init_sqrt_obs_labels(n_obs: int, rng, n_clusters: int | None = None) -> np.ndarray:
    """Random observation labels into ``sqrt(m)`` clusters (Algorithm 3)."""
    if n_clusters is None:
        n_clusters = max(1, int(math.isqrt(n_obs)))
    return rng.random_labels(n_obs, n_clusters)
