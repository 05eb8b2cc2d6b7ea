"""Lazy-margin split-scoring kernel with beta-score memoization.

Split scoring dominates sequential run-time (Section 2.2.3: more than 90%).
Scored naively, every node would materialize a dense ``(P * n_obs, n_obs)``
margins matrix — ``O(P * n_obs^2)`` memory — and re-evaluate full
``O(n_obs)`` rows for beta grid points the Metropolis chain has already
visited.  This module avoids both costs:

* **Lazy margins** — a split ``(X_l, v)`` at a node is fully described by the
  ``(P, n_obs)`` parent-value slice ``values`` and the left/right sign vector,
  because ``score(l, j, beta) = sum_o logsigmoid(beta * sign_o *
  (values[l, j] - values[l, o]))``.  The kernel evaluates that broadcast over
  one cached value row on demand, so no margins matrix is ever built and
  peak memory is ``O(P * n_obs)`` plus one evaluation chunk of at most
  :data:`CHUNK_ELEMENTS` (``peak_chunk_elements`` counts the largest).
* **Beta-score memoization** — a chain of at most ``max_steps`` steps over a
  ~7-point grid proposes previously-visited betas constantly; each
  ``(split, beta)`` score is computed once and served from a
  ``(n_groups, n_beta)`` cache afterwards.
* **Equal-split-value dedup** — two candidates ``(X_l, v)`` and ``(X_l, v')``
  with ``v == v'`` (duplicate parent values at the node) have identical margin
  rows, hence identical score tables.  Candidates are grouped by
  ``(parent row, value)`` and the cache is keyed per *group*, so duplicates
  are scored once.  Only the deterministic score table is shared: every split
  still consumes its own private indexed-stream draws, which is what keeps
  the RNG-lockstep draw accounting — and therefore every backend's output —
  unchanged.

A score is computed in one fixed order — subtract, multiply by sign,
multiply by beta, the stable log-sigmoid, a pairwise sum over one contiguous
``n_obs`` row, quantization — which the native batch entry replays bit for
bit.  Rows are evaluated independently, so neither the chunk size nor which
candidates share a group can change a bit, and deduplicated candidates share
equal float values, so their rows are equal by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.rng.philox import DrawSpan
from repro.rng.streams import SCORE_QUANTUM

#: Bound on the element count of one evaluation temporary (``chunk_rows *
#: n_obs`` float64 values, 1 MiB: half the 2 MiB per-core L2 of the machine
#: every benchmark row was taken on).  It changes no score — rows are
#: evaluated independently and summed per row — only how many rows one
#: temporary holds (docs/ALGORITHMS.md §11).
CHUNK_ELEMENTS = 1 << 17

#: how many elements one parent's table of margin rows (``n_beta * n_u *
#: n_u``, float64) may hold for the native batch entry to share rows at all
#: (16 MiB, 16 evaluation chunks: a universe of up to ~540 observations at 7
#: betas).  Above it the batch runs the fused per-row evaluator, what every
#: node ran before batches: a table that held only part of a parent's rows
#: refilled ``n_u``-wide rows for ``n_obs``-wide reads and measured slower
#: than not sharing (docs/ALGORITHMS.md §10, "The table budget").
MARGIN_TABLE_ELEMENTS = 1 << 21

#: the valid ``ParallelConfig.kernel_backend`` / CLI ``--kernel-backend``
#: values: the pure-NumPy oracle, the native-compiled extension, or probe
KERNEL_BACKENDS = ("auto", "numpy", "native")

_WARNED_NATIVE_FALLBACK = False

#: split-kernel counters that surface only once nonzero: the native batch
#: entry's margin-row table (rows filled with ``log1p(exp(-|z|))`` and reads
#: of them) and the Philox blocks it computed for its chains' draws
MARGIN_COUNTERS = ("margin_rows_filled", "margin_row_uses", "philox_blocks")


def resolve_kernel_backend(name: str):
    """Resolve a backend request to ``(backend_name, native_or_None)``.

    The request is a job's ``ParallelConfig.kernel_backend``: whoever holds
    the config resolves it and hands the result to the code that scores
    (a :class:`~repro.scoring.split_score.SplitScorer`, the GaneSH runs).
    ``"numpy"`` never touches the extension.  ``"native"`` demands the
    certified native kernels and raises :class:`RuntimeError` when they
    are unavailable — an explicit request must not silently degrade.
    ``"auto"`` probes availability: the extension is used when it builds,
    loads and passes its bit-identity certification, otherwise NumPy is
    used — with a one-time warning if the native path *failed* rather than
    being expectedly absent (no cffi, no compiler, ``REPRO_NATIVE_DISABLE``).
    """
    global _WARNED_NATIVE_FALLBACK
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"kernel backend must be one of {KERNEL_BACKENDS}, got {name!r}"
        )
    if name == "numpy":
        return "numpy", None
    from repro import _native

    kernels = _native.load()
    if kernels is not None:
        return "native", kernels
    info = _native.availability()
    if name == "native":
        raise RuntimeError(
            "kernel_backend='native' but the native extension is "
            f"unavailable ({info['status']}: {info['detail']})"
        )
    if info["status"] in _native.FAILURE_STATUSES and not _WARNED_NATIVE_FALLBACK:
        _WARNED_NATIVE_FALLBACK = True
        warnings.warn(
            "native split-scoring backend unavailable "
            f"({info['status']}: {info['detail']}); falling back to NumPy",
            RuntimeWarning,
            stacklevel=2,
        )
    return "numpy", None


def active_kernel_backend() -> str:
    """The backend ``"auto"`` resolves to in this process."""
    return resolve_kernel_backend("auto")[0]


def merge_counters(agg: dict, counters: dict | None) -> None:
    """Add one delta of split-kernel counters to ``agg``, in place.

    A delta holds ``hits`` / ``evaluations`` (cache behaviour),
    ``peak_chunk_elements`` (largest evaluation temporary, merged by max),
    ``backends`` (the backends that evaluated something, merged as a sorted
    union) and any :data:`MARGIN_COUNTERS`.  A margin key enters ``agg``
    only once some delta carries it nonzero, so runs that shared no margin
    rows keep the plain shape.  ``None`` or an all-zero delta (scored
    nothing) leaves ``agg`` as it is.  The one merge of every counter in
    the package: a :class:`~repro.scoring.split_score.SplitScorer` adds
    its kernels' deltas with it, and
    :meth:`~repro.parallel.trace.WorkTrace.mark_kernel` its drains.
    """
    if not counters or not any(counters.values()):
        return
    agg["hits"] = agg.get("hits", 0) + int(counters.get("hits", 0))
    agg["evaluations"] = agg.get("evaluations", 0) + int(counters.get("evaluations", 0))
    agg["peak_chunk_elements"] = max(
        agg.get("peak_chunk_elements", 0), int(counters.get("peak_chunk_elements", 0))
    )
    agg["backends"] = sorted(set(agg.get("backends", ())) | set(counters.get("backends", ())))
    for key in MARGIN_COUNTERS:
        if counters.get(key) or key in agg:
            agg[key] = agg.get(key, 0) + int(counters.get(key, 0))


def chain_counters(counters, table) -> dict:
    """One :func:`run_chains` call's counters as one delta for
    :func:`merge_counters`: its nodes' ``(hits, evaluations,
    peak_chunk_elements)`` — a node's peak and the ``"native"`` backend
    only where it evaluated something, as its NumPy chain would count them
    — and the call's ``table`` traffic, :data:`MARGIN_COUNTERS` in order."""
    evaluated = [(evaluations, peak) for _hits, evaluations, peak in counters if evaluations]
    return {
        "hits": sum(hits for hits, _evaluations, _peak in counters),
        "evaluations": sum(evaluations for evaluations, _peak in evaluated),
        "peak_chunk_elements": max((peak for _evaluations, peak in evaluated), default=0),
        "backends": ["native"] if evaluated else [],
        **{key: count for key, count in zip(MARGIN_COUNTERS, table) if count},
    }


def row_scores(z: np.ndarray) -> np.ndarray:
    """Quantized ``sum_o logsigmoid(z[:, o])`` for a batch of margin rows.

    The stable log-sigmoid ``where(z > 0, -log1p(exp(-|z|)), z -
    log1p(exp(-|z|)))`` with the shared term computed once, and the row
    sum is ``np.sum``'s pairwise sum over a contiguous float64 row.
    """
    t = np.log1p(np.exp(-np.abs(z)))
    out = np.where(z > 0, -t, z - t)
    scores = out.sum(axis=1)
    return np.round(scores / SCORE_QUANTUM) * SCORE_QUANTUM


def group_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the entries of each row of ``values`` by value.

    Returns ``(item_groups, group_row, group_value)``: the group of every
    entry in row-major order, and per group its row and value.  One stable
    row-wise sort serves all rows; a sorted value opens a group when it
    differs from its left neighbour (-0.0 == 0.0 share one, as under
    ``np.unique``), so group values ascend per row and the running count of
    openings is the group id.
    """
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    opens = np.ones(ranked.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=opens[:, 1:])
    if ranked.shape[1] and np.isnan(ranked[:, -1]).any():
        # NaNs sort last and np.unique collapses them into one group.
        opens[:, 1:] &= ~(np.isnan(ranked[:, 1:]) & np.isnan(ranked[:, :-1]))
    group_of_rank = np.cumsum(opens.ravel()).reshape(ranked.shape) - 1
    item_groups = np.empty(ranked.shape, dtype=np.int64)
    np.put_along_axis(item_groups, order, group_of_rank, axis=1)
    group_row = np.repeat(
        np.arange(values.shape[0], dtype=np.int64), opens.sum(axis=1)
    )
    return item_groups.ravel(), group_row, ranked[opens]


def _ranks_per_row(item_groups, group_row, shape) -> np.ndarray:
    """:func:`group_rows`' group ids counted from 0 within each row: the
    rank of every entry's value among its row's distinct ones."""
    first = np.searchsorted(group_row, np.arange(shape[0]))
    return item_groups.reshape(shape) - first[:, None]


class LazySplitKernel:
    """Deduplicated, memoized split scores from a ``(P, n_obs)`` value slice.

    Construction enumerates the node's candidate splits in the canonical
    parent-major, observation-minor order and groups candidates that share a
    ``(parent row, split value)`` pair; ``item_groups[l * n_obs + j]`` maps
    candidate ``(parents[l], data[parents[l], obs[j]])`` to its group.  The
    score cache is keyed per ``(group, beta index)``, evaluations run in
    chunks bounded by ``max_chunk_elements`` (at least one row), and
    ``peak_chunk_elements`` records the largest temporary actually
    allocated.

    It is the NumPy backend's kernel and the oracle, scores and counters,
    of the native batch entry (:func:`run_chains`: whole nodes, chain or
    grid, against the call's own memo).  Cached scores are tracked by an
    explicit seen-bitmask, not a NaN sentinel, so a legitimately non-finite
    score (a row mixing ``+inf`` and ``-inf`` margins sums to NaN) is cached
    like any other value instead of re-evaluating on every lookup.
    """

    def __init__(
        self,
        values: np.ndarray,
        sign: np.ndarray,
        beta_grid,
        *,
        max_chunk_elements: int | None = None,
    ) -> None:
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must have shape (P, n_obs)")
        self.sign = np.ascontiguousarray(sign, dtype=np.float64)
        self.beta_grid = np.ascontiguousarray(beta_grid, dtype=np.float64)
        self.n_parents, self.n_obs = self.values.shape
        if self.sign.shape != (self.n_obs,):
            raise ValueError("sign must have one entry per observation")
        self.n_items = self.n_parents * self.n_obs
        self._n_beta = self.beta_grid.size
        self.max_chunk_elements = int(max_chunk_elements or CHUNK_ELEMENTS)
        self.item_groups, self.group_row, self.group_value = group_rows(self.values)
        self.n_groups = int(self.group_row.size)
        self._cache = np.zeros(self.n_groups * self._n_beta)
        self._seen = np.zeros(self.n_groups * self._n_beta, dtype=bool)
        self.hits = 0
        self.evaluations = 0
        self.peak_chunk_elements = 0

    @property
    def n_beta(self) -> int:
        return self._n_beta

    def scores(self, groups: np.ndarray, beta_idx: np.ndarray) -> np.ndarray:
        """Quantized scores of ``groups`` at per-entry beta grid indices.

        Served from the memo cache where present; uncached pairs are
        evaluated lazily (grouped by beta, chunked under the allocation
        bound) and cached for the rest of the batch.
        """
        flat = np.asarray(groups, dtype=np.int64) * self._n_beta + np.asarray(
            beta_idx, dtype=np.int64
        )
        missing = ~self._seen[flat]
        self.hits += int(flat.size - missing.sum())
        if missing.any():
            # Sorted distinct keys (``np.unique`` would import ``numpy.ma``).
            keys = np.sort(flat[missing])
            self._evaluate(keys[np.diff(keys, prepend=-1) != 0])
        return self._cache[flat]

    def _chunk_rows(self) -> int:
        return max(1, self.max_chunk_elements // max(1, self.n_obs))

    def _evaluate(self, keys: np.ndarray) -> None:
        beta = keys % self._n_beta
        groups = keys // self._n_beta
        order = np.argsort(beta, kind="stable")
        beta, groups = beta[order], groups[order]
        bounds = np.flatnonzero(np.diff(beta)) + 1
        chunk_rows = self._chunk_rows()
        for beta_groups, beta_vals in zip(
            np.split(groups, bounds), np.split(beta, bounds)
        ):
            grid_beta = self.beta_grid[beta_vals[0]]
            for start in range(0, beta_groups.size, chunk_rows):
                chunk = beta_groups[start : start + chunk_rows]
                self.peak_chunk_elements = max(
                    self.peak_chunk_elements, chunk.size * self.n_obs
                )
                idx = chunk * self._n_beta + beta_vals[0]
                # Subtract values, multiply by sign, multiply by beta, stable
                # log-sigmoid row sum: each step is elementwise, so chunking
                # cannot change a single bit of the result.
                diff = self.group_value[chunk][:, None] - self.values[self.group_row[chunk]]
                margin = self.sign * diff
                z = margin * grid_beta
                self._cache[idx] = row_scores(z)
                self._seen[idx] = True
        self.evaluations += int(keys.size)


@dataclass
class ChainNode:
    """One tree node of a native scoring batch (:func:`run_chains`)."""

    #: the node's observations, as columns of the batch's universe
    obs: np.ndarray
    #: +1.0 for the left child's observations, -1.0 for the right's
    sign: np.ndarray
    #: the ``DrawSpan`` of the private draws of the node's candidates ``l *
    #: n_obs + j``, every one of them in order (``None`` in a grid batch)
    span: DrawSpan | None = None


def run_chains(
    native,
    uvalues: np.ndarray,
    beta_grid: np.ndarray,
    nodes: list[ChainNode],
    max_steps: int,
    stop_repeats: int,
    *,
    urow: np.ndarray | None = None,
    max_chunk_elements: int | None = None,
    table_elements: int | None = None,
    want_idx: bool = True,
    want_steps: bool = True,
    grid: bool = False,
):
    """The scorer's sampling chains of a batch of tree nodes, in one call —
    or, with ``grid``, its exhaustive search
    (:meth:`~repro.scoring.split_score.SplitScorer.score_grid_best_kernel`):
    each candidate's first strictly best score over the whole beta grid,
    from one lookup of all of a ``(node, parent)``'s candidates per beta in
    grid order, against the same memo and margin table; its nodes carry no
    span and it returns no steps.

    ``uvalues`` is the batch's universe — row ``l`` holds candidate parent
    ``l``'s values at every observation some node of the batch has — and a
    node's candidate ``l * n_obs + j`` is ``(parent l, uvalues[l,
    obs[j]])``; each node's chain runs over all of its candidates, against
    a scratch memo the call allocates per ``(node, parent)`` and frees, so
    no caller's memo is read or written.  The native entry scores the
    batch parent by parent: the
    transcendental part of a margin, ``log1p(exp(-|(v - x) * beta|))``,
    does not depend on a node's +-1 sign vector, so every node reads it
    from one table of margin rows per parent, keyed by universe column,
    each row filled the first time any chain needs it — or, where the
    items' first lookups will read enough rows of a ``(parent, beta)``
    block, the whole block at once by the symmetry ``t(u, o) = t(o, u)``,
    about half the ``exp``/``log1p`` — and only the sign select, the
    pairwise sum and the quantum are paid per ``(group, beta)``: one
    register pass over the node's columns (plain loads when they are one
    run, a gather otherwise), the selected row never stored, four of a
    lookup's distinct missing keys summed at once in interleaved registers.
    The accept step is integer-mask blends, which compile without a branch
    (ALGORITHMS.md §10, §13).  Each chain item
    computes the draws of its node's span through a cursor of its own, an
    inline read while its Philox block is in hand:
    consecutive Philox steps share a four-draw block, and an MRG item
    starts one matrix product on from the previous item's start
    (ALGORITHMS.md §13).  One parent's table is
    ``n_beta * n_u`` rows of ``n_u``; when that passes ``table_elements``
    (default: :data:`MARGIN_TABLE_ELEMENTS`) nothing is shared and every
    node runs the fused per-row evaluator — a row is a pure function of its
    key, so the budget cannot change a bit of the output.  ``urow`` ranks
    each universe row's distinct values from 0 (computed when not given).

    Returns the flat ``best_score`` / ``steps`` (``None`` unless
    ``want_steps``) / ``best_idx`` (``None`` unless ``want_idx``) of all
    chain items, node after node — a count or index not wanted stays in the
    call's scratch and costs the caller no array — the nodes'
    ``bounds`` in them, per node the ``(hits, evaluations,
    peak_chunk_elements)`` its own NumPy chain would have counted, and the
    call's ``(margin_rows_filled, margin_row_uses, philox_blocks)``.  It
    accounts nothing: the caller adds them where it counts
    (:meth:`~repro.scoring.split_score.SplitScorer.score_chain_nodes`).
    """
    uvalues = np.ascontiguousarray(uvalues, dtype=np.float64)
    beta_grid = np.ascontiguousarray(beta_grid, dtype=np.float64)
    n_parents, n_u = uvalues.shape
    if urow is None:
        ranks, group_row, _values = group_rows(uvalues)
        urow = _ranks_per_row(ranks, group_row, uvalues.shape)
    budget = MARGIN_TABLE_ELEMENTS if table_elements is None else table_elements
    share = beta_grid.size * n_u * n_u <= budget
    return native.score_batch(
        uvalues, np.ascontiguousarray(urow), beta_grid, nodes,
        max_steps, stop_repeats, SCORE_QUANTUM, max_chunk_elements or CHUNK_ELEMENTS,
        share, want_idx, want_steps, grid,
    )


def split_sign(obs: np.ndarray, left_obs: np.ndarray) -> np.ndarray:
    """A node's left/right vector: +1.0 where an observation belongs to the
    left child, -1.0 elsewhere.  ``obs`` is ascending and ``left_obs`` a
    subset of it, as a tree node's and its left child's observations are
    (:func:`repro.trees.hierarchy.build_tree_structure`), so each left
    observation's position is a binary search away; a search that lands
    anywhere else (unsorted ``obs``, a stray left observation) is refused
    rather than answered with a wrong vector."""
    at = np.searchsorted(obs, left_obs)
    if not np.array_equal(np.take(obs, at, mode="clip"), left_obs):
        raise ValueError("split_sign needs ascending obs that hold every left observation")
    sign = np.full(len(obs), -1.0)
    sign[at] = 1.0
    return sign


def split_kernel_from_arrays(
    data: np.ndarray,
    obs: np.ndarray,
    left_obs: np.ndarray,
    parents: np.ndarray,
    beta_grid,
    *,
    max_chunk_elements: int | None = None,
) -> LazySplitKernel:
    """A node's lazy kernel from raw arrays.

    ``obs`` are the node's observations, ``left_obs`` its left child's;
    candidate ``l * n_obs + j`` is ``(parents[l], data[parents[l],
    obs[j]])``.
    """
    obs = np.asarray(obs, dtype=np.int64)
    values = data[np.asarray(parents, dtype=np.int64)][:, obs]
    return LazySplitKernel(
        values, split_sign(obs, left_obs), beta_grid, max_chunk_elements=max_chunk_elements
    )
