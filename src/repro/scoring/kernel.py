"""Lazy-margin split-scoring kernel with beta-score memoization.

Split scoring dominates sequential run-time (Section 2.2.3: more than 90%),
and the seed implementation pays for it twice over: every node first
materializes a dense ``(P * n_obs, n_obs)`` margins matrix — ``O(P * n_obs^2)``
memory — and then re-evaluates full ``O(n_obs)`` rows for beta grid points the
Metropolis chain has already visited.  This module removes both costs while
keeping the scores **bit-identical**:

* **Lazy margins** — a split ``(X_l, v)`` at a node is fully described by the
  ``(P, n_obs)`` parent-value slice ``values`` and the left/right sign vector,
  because ``score(l, j, beta) = sum_o logsigmoid(beta * sign_o *
  (values[l, j] - values[l, o]))``.  The kernel evaluates that broadcast over
  one cached value row on demand, so the dense margins matrix is never built
  and peak memory drops to ``O(P * n_obs)`` (plus a bounded evaluation chunk).
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

Bit-identity holds because the kernel performs the exact same elementwise
operations in the exact same order as the dense path (subtract, multiply by
sign, multiply by beta, the stable log-sigmoid, a pairwise sum over one
contiguous ``n_obs`` row, quantization); deduplicated candidates share equal
float values, so their rows are equal by construction.

The module also hosts the allocation guard used to *prove* the memory claim:
``allocation_cap(n)`` caps the element count of any guarded temporary, the
kernel sizes its evaluation chunks under the cap, and the dense
``margins_from_arrays`` path calls :func:`guard_alloc` so a test can pick a
node whose margins matrix is impossible to build while the kernel scores it.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.rng.streams import SCORE_QUANTUM

#: Default bound on the element count of one evaluation temporary
#: (``chunk_rows * n_obs`` float64 values, ~2 MiB) when the machine's
#: cache hierarchy is unknown; see :func:`configured_chunk_elements`.
DEFAULT_CHUNK_ELEMENTS = 1 << 18

_CONFIGURED_CHUNK_ELEMENTS: int | None = None

#: how many evaluation chunks' worth of elements one parent's table of
#: margin rows (``n_beta * n_u * n_u``) may hold for the native batch entry
#: to share rows at all (16 MiB on a 1 MiB-L2 machine: a universe of up to
#: ~540 observations at 7 betas).  Above it the batch runs the fused
#: per-row evaluator, what every node ran before batches: a table that held
#: only part of a parent's rows refilled ``n_u``-wide rows for ``n_obs``-wide
#: reads and measured slower than not sharing (CHANGES.md, PR 23).
MARGIN_TABLE_CHUNKS = 16

_CAP: int | None = None

#: the valid ``ParallelConfig.kernel_backend`` / CLI ``--kernel-backend``
#: values: the pure-NumPy oracle, the native-compiled extension, or probe
KERNEL_BACKENDS = ("auto", "numpy", "native")

_CONFIGURED_BACKEND: str = "auto"

_WARNED_NATIVE_FALLBACK = False

#: process-wide kernel counter accumulator (hits / evaluations /
#: peak_chunk_elements / backends seen) drained by the executor and the
#: learner into ``WorkTrace.kernel_counters``
_TOTALS = {"hits": 0, "evaluations": 0, "peak_chunk_elements": 0}
#: counters that surface only once touched: the native batch entry's
#: margin-row table (rows filled with ``log1p(exp(-|z|))`` and reads of
#: them) and the Philox blocks it computed for its chains' draws
_MARGIN_TOTALS = {"margin_rows_filled": 0, "margin_row_uses": 0, "philox_blocks": 0}
_TOTALS_BACKENDS: set[str] = set()


def set_kernel_backend(name: str | None) -> str | None:
    """Install the process-wide scoring-backend selection.

    Mirrors :func:`set_chunk_elements`: the executor calls this in every
    pool worker (and on its own serial path) with
    ``ParallelConfig.kernel_backend``, so kernels constructed deep inside
    module learning pick the configured backend without threading a
    parameter through every layer.  Returns the previous value so callers
    can restore it; ``None`` reverts to ``"auto"``.
    """
    global _CONFIGURED_BACKEND
    if name is not None and name not in KERNEL_BACKENDS:
        raise ValueError(
            f"kernel backend must be one of {KERNEL_BACKENDS}, got {name!r}"
        )
    previous = _CONFIGURED_BACKEND
    _CONFIGURED_BACKEND = "auto" if name is None else name
    return previous


def configured_kernel_backend() -> str:
    """The configured (unresolved) backend selection for this process."""
    return _CONFIGURED_BACKEND


def resolve_kernel_backend(name: str | None = None):
    """Resolve a backend request to ``(backend_name, native_or_None)``.

    ``"numpy"`` never touches the extension.  ``"native"`` demands the
    certified native kernels and raises :class:`RuntimeError` when they
    are unavailable — an explicit request must not silently degrade.
    ``"auto"`` (and ``None``, meaning the process-wide configuration)
    probes availability: the extension is used when it builds, loads and
    passes its bit-identity certification, otherwise NumPy is used — with
    a one-time warning if the native path *failed* rather than being
    expectedly absent (no cffi, no compiler, ``REPRO_NATIVE_DISABLE``).
    """
    global _WARNED_NATIVE_FALLBACK
    if name is None:
        name = _CONFIGURED_BACKEND
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
    if info["status"] == "certifying":
        # Re-entered from the loader's own certification on this thread:
        # the oracle it compares the extension against is NumPy.
        return "numpy", None
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
    """The backend new kernels will actually use (``auto`` resolved)."""
    return resolve_kernel_backend()[0]


def _account_totals(
    hits: int = 0, evaluations: int = 0, peak: int = 0, backend: str | None = None
) -> None:
    _TOTALS["hits"] += hits
    _TOTALS["evaluations"] += evaluations
    if peak > _TOTALS["peak_chunk_elements"]:
        _TOTALS["peak_chunk_elements"] = peak
    if backend is not None:
        _TOTALS_BACKENDS.add(backend)


def _account_margins(filled: int, uses: int, blocks: int) -> None:
    """Accumulate one batch call's margin-table traffic and draw blocks."""
    _MARGIN_TOTALS["margin_rows_filled"] += filled
    _MARGIN_TOTALS["margin_row_uses"] += uses
    _MARGIN_TOTALS["philox_blocks"] += blocks


def consume_kernel_totals() -> dict | None:
    """Drain the process-wide kernel counters (``None`` when untouched).

    Pool workers ship the returned delta back with each task result and
    the learner drains its own process at the end of a run, so
    ``WorkTrace.kernel_counters`` aggregates cache behaviour across every
    process that scored splits — whatever backend each one resolved.  The
    ``margin_*`` keys appear only when the native batch entry shared
    margin rows, and ``philox_blocks`` only when it computed draws, so runs
    that did neither keep the plain counter shape.
    """
    if not (any(_TOTALS.values()) or _TOTALS_BACKENDS or any(_MARGIN_TOTALS.values())):
        return None
    out = dict(_TOTALS)
    out["backends"] = sorted(_TOTALS_BACKENDS)
    out.update((key, count) for key, count in _MARGIN_TOTALS.items() if count)
    _TOTALS["hits"] = 0
    _TOTALS["evaluations"] = 0
    _TOTALS["peak_chunk_elements"] = 0
    for key in _MARGIN_TOTALS:
        _MARGIN_TOTALS[key] = 0
    _TOTALS_BACKENDS.clear()
    return out


@contextmanager
def isolated_kernel_totals():
    """Keep a block's kernel traffic out of the process-wide counters.

    The native loader certifies its chain entry against a NumPy kernel it
    scores itself; that probe traffic is not the program's scoring work
    and must not surface in the first run's ``WorkTrace.kernel_counters``.
    """
    saved = dict(_TOTALS), set(_TOTALS_BACKENDS), dict(_MARGIN_TOTALS)
    try:
        yield
    finally:
        _TOTALS.update(saved[0])
        _TOTALS_BACKENDS.clear()
        _TOTALS_BACKENDS.update(saved[1])
        _MARGIN_TOTALS.update(saved[2])


def set_chunk_elements(n_elements: int | None) -> int | None:
    """Install a process-wide default for evaluation-chunk sizing.

    Pool workers and shard nodes install the driver's
    :func:`configured_chunk_elements` here at start-up, so the machine is
    probed once per run and kernels constructed deep inside module
    learning pick that size without threading a parameter through every
    layer.  A one-worker run never calls it.  Returns the previous
    override so callers can restore it; ``None`` reverts to lazy machine
    probing.
    """
    global _CONFIGURED_CHUNK_ELEMENTS
    previous = _CONFIGURED_CHUNK_ELEMENTS
    _CONFIGURED_CHUNK_ELEMENTS = None if n_elements is None else int(n_elements)
    return previous


def configured_chunk_elements() -> int:
    """The active default bound for one evaluation temporary.

    An explicit :func:`set_chunk_elements` override wins; otherwise the
    machine topology is probed once (falling back to the flat model and
    therefore :data:`DEFAULT_CHUNK_ELEMENTS` when sysfs is unavailable)
    and the L2/L3-derived size is cached.  Chunk size can never change
    scores — rows are evaluated independently and summed per row — so
    this is purely a cache-locality knob.
    """
    global _CONFIGURED_CHUNK_ELEMENTS
    if _CONFIGURED_CHUNK_ELEMENTS is None:
        # Lazy import: repro.parallel pulls in the engine/learner stack.
        from repro.parallel.topology import chunk_elements_for, probe_topology

        _CONFIGURED_CHUNK_ELEMENTS = chunk_elements_for(probe_topology())
    return _CONFIGURED_CHUNK_ELEMENTS


class AllocationCapExceeded(MemoryError):
    """A guarded temporary would exceed the active :func:`allocation_cap`."""


@contextmanager
def allocation_cap(max_elements: int):
    """Cap guarded temporaries at ``max_elements`` float64 elements.

    Used by tests to verify the kernel's O(P * n_obs) memory contract: under
    a cap smaller than ``P * n_obs * n_obs`` the dense margins path raises
    :class:`AllocationCapExceeded` while the lazy kernel, which chunks its
    evaluations under the cap, scores the same node successfully.
    """
    global _CAP
    prev = _CAP
    _CAP = int(max_elements)
    try:
        yield
    finally:
        _CAP = prev


def guard_alloc(n_elements: int, what: str = "temporary") -> int:
    """Check one guarded allocation against the active cap (if any)."""
    if _CAP is not None and n_elements > _CAP:
        raise AllocationCapExceeded(
            f"{what} needs {n_elements} float64 elements, "
            f"allocation cap is {_CAP}"
        )
    return int(n_elements)


def row_scores(z: np.ndarray) -> np.ndarray:
    """Quantized ``sum_o logsigmoid(z[:, o])`` for a batch of margin rows.

    The per-element branch values equal the dense path's
    ``where(z > 0, -log1p(exp(-|z|)), z - log1p(exp(-|z|)))`` exactly — the
    shared ``log1p(exp(-|z|))`` term is simply computed once instead of once
    per branch — and the row sum is ``np.sum`` over a contiguous float64 row
    of the same length, so results are bit-identical to the seed kernel.
    """
    t = np.log1p(np.exp(-np.abs(z)))
    out = np.where(z > 0, -t, z - t)
    scores = out.sum(axis=1)
    return np.round(scores / SCORE_QUANTUM) * SCORE_QUANTUM


class DenseScoreMemo:
    """Per-(item, beta) score memo over a materialized margins matrix.

    The memoized provider behind :meth:`SplitScorer.score_batch`: scores are
    computed from the margins rows exactly as the seed did, but each
    ``(item, beta)`` pair is evaluated at most once per batch.  ``hits``
    counts lookups served from the cache, ``evaluations`` the rows actually
    computed — the observable contract of the memoization tests.
    """

    def __init__(self, margins: np.ndarray, beta_grid: np.ndarray) -> None:
        self.margins = np.asarray(margins, dtype=np.float64)
        self.beta_grid = np.asarray(beta_grid, dtype=np.float64)
        self.n_items, self.n_obs = self.margins.shape
        self._n_beta = self.beta_grid.size
        guard_alloc(self.n_items * self._n_beta, "dense beta-score cache")
        self._cache = np.zeros(self.n_items * self._n_beta)
        self._seen = np.zeros(self.n_items * self._n_beta, dtype=bool)
        self.hits = 0
        self.evaluations = 0

    def scores(self, rows: np.ndarray, beta_idx: np.ndarray) -> np.ndarray:
        flat = np.asarray(rows, dtype=np.int64) * self._n_beta + np.asarray(
            beta_idx, dtype=np.int64
        )
        missing = ~self._seen[flat]
        hits = int(flat.size - missing.sum())
        self.hits += hits
        _account_totals(hits=hits)
        if missing.any():
            keys = np.unique(flat[missing])
            self._evaluate(keys)
        return self._cache[flat]

    def _evaluate(self, keys: np.ndarray) -> None:
        beta = keys % self._n_beta
        items = keys // self._n_beta
        order = np.argsort(beta, kind="stable")
        beta, items = beta[order], items[order]
        bounds = np.flatnonzero(np.diff(beta)) + 1
        for chunk_items, chunk_beta in zip(
            np.split(items, bounds), np.split(beta, bounds)
        ):
            z = self.margins[chunk_items] * self.beta_grid[chunk_beta[0]]
            idx = chunk_items * self._n_beta + chunk_beta[0]
            self._cache[idx] = row_scores(z)
            self._seen[idx] = True
        self.evaluations += int(keys.size)
        _account_totals(evaluations=int(keys.size), backend="numpy")


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
    chunks bounded by ``max_chunk_elements`` (and by any active
    :func:`allocation_cap`), and ``peak_chunk_elements`` records the largest
    temporary actually allocated.

    ``backend`` selects who evaluates a chunk: the NumPy expressions or
    the certified native extension (``None`` defers to the process-wide
    :func:`set_kernel_backend` configuration, ``"auto"`` by default).  In
    :meth:`scores` the native path replaces only the chunk evaluation body;
    in :meth:`run_chain` it runs the scorer's whole sampling chain against
    this kernel's memo in one call.  Grouping, chunk sizing and
    :func:`guard_alloc` stay in Python either way, and scores, counters and
    the memo's end state are bit-identical by the extension's load-time
    certification.  Cached scores are tracked by an explicit seen-bitmask,
    not a NaN sentinel, so a legitimately non-finite score (a row mixing
    ``+inf`` and ``-inf`` margins sums to NaN) is cached like any other
    value instead of re-evaluating on every lookup.
    """

    def __init__(
        self,
        values: np.ndarray,
        sign: np.ndarray,
        beta_grid,
        *,
        max_chunk_elements: int | None = None,
        backend: str | None = None,
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
        self.max_chunk_elements = int(max_chunk_elements or configured_chunk_elements())
        self.backend, self._native = resolve_kernel_backend(backend)
        guard_alloc(self.n_items, "parent-value slice")
        self.item_groups, self.group_row, self.group_value = group_rows(self.values)
        self.n_groups = int(self.group_row.size)
        guard_alloc(self.n_groups * self._n_beta, "beta-score cache")
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
        hits = int(flat.size - missing.sum())
        self.hits += hits
        _account_totals(hits=hits)
        if missing.any():
            keys = np.unique(flat[missing])
            self._evaluate(keys)
        return self._cache[flat]

    def run_chain(
        self,
        item_indices: np.ndarray | None,
        uniforms,
        max_steps: int,
        stop_repeats: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The scorer's whole bounded sampling chain in one native call.

        Native backend only: a one-node :func:`run_chains` batch whose
        universe is this node's own value slice and whose memo is this
        kernel's, updated in place — ``SplitScorer._run_chain`` over
        :meth:`scores`, same lookups in the same step-synchronous order,
        same per-row evaluator — so ``best_score`` / ``steps`` /
        ``best_idx`` and every counter equal what the NumPy chain would
        have produced.  ``item_indices`` (``None``: every candidate) must
        ascend by parent; ``uniforms`` is the items' rows of private draws
        or their :class:`~repro.rng.philox.DrawSpan`, which is never
        materialised — the call computes the draws its chains reach.
        """
        groups = self.item_groups
        if item_indices is not None:
            item_indices = np.ascontiguousarray(item_indices, dtype=np.int64)
            groups = groups[item_indices]
        node = ChainNode(
            np.arange(self.n_obs), self.sign, uniforms, item_indices,
            groups, self._cache, self._seen,
        )
        best_score, steps, best_idx, _bounds, ((hits, evaluations, peak),) = run_chains(
            self._native, self.values, self.beta_grid, [node], max_steps, stop_repeats,
            urow=_ranks_per_row(self.item_groups, self.group_row, self.values.shape),
            max_chunk_elements=self.max_chunk_elements,
        )
        self.hits += hits
        self.evaluations += evaluations
        self.peak_chunk_elements = max(self.peak_chunk_elements, peak)
        return best_score, steps, best_idx

    def _chunk_rows(self) -> int:
        return max(1, _chunk_limit(self.max_chunk_elements) // max(1, self.n_obs))

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
                n_elements = guard_alloc(
                    chunk.size * self.n_obs, "lazy-margin evaluation chunk"
                )
                self.peak_chunk_elements = max(self.peak_chunk_elements, n_elements)
                idx = chunk * self._n_beta + beta_vals[0]
                if self._native is not None:
                    # The certified extension computes the exact chunk body
                    # below (same operation order, same libm entry points as
                    # NumPy) with the GIL released; grouping, chunk sizing
                    # and the cap guard above stay in Python, so allocation
                    # semantics are shared with the NumPy path.
                    out = np.empty(chunk.size)
                    self._native.eval_chunk(
                        np.ascontiguousarray(self.group_value[chunk]),
                        np.ascontiguousarray(self.group_row[chunk]),
                        self.values,
                        self.sign,
                        float(grid_beta),
                        SCORE_QUANTUM,
                        out,
                    )
                    self._cache[idx] = out
                else:
                    # The dense path's exact operation order: subtract
                    # values, multiply by sign, multiply by beta, stable
                    # log-sigmoid row sum.  Each step is elementwise, so
                    # laziness cannot change a single bit of the result.
                    diff = self.group_value[chunk][:, None] - self.values[self.group_row[chunk]]
                    margin = self.sign * diff
                    z = margin * grid_beta
                    self._cache[idx] = row_scores(z)
                self._seen[idx] = True
        self.evaluations += int(keys.size)
        _account_totals(
            evaluations=int(keys.size),
            peak=self.peak_chunk_elements,
            backend=self.backend,
        )


def _chunk_limit(max_chunk_elements: int | None) -> int:
    """Elements one evaluation temporary may hold, under any active cap."""
    limit = int(max_chunk_elements or configured_chunk_elements())
    return limit if _CAP is None else min(limit, _CAP)


@dataclass
class ChainNode:
    """One tree node of a native scoring batch (:func:`run_chains`)."""

    #: the node's observations, as columns of the batch's universe
    obs: np.ndarray
    #: +1.0 for the left child's observations, -1.0 for the right's
    sign: np.ndarray
    #: the chain items' rows of private draws, or their ``DrawSpan``
    uniforms: object
    #: the candidates ``l * n_obs + j`` the chain runs over, ascending by
    #: parent (``None``: all of them)
    items: np.ndarray | None = None
    #: a lent memo, updated in place: per item its row of ``cache`` /
    #: ``seen`` (``None``: the chain keeps a scratch memo per parent)
    groups: np.ndarray | None = None
    cache: np.ndarray | None = None
    seen: np.ndarray | None = None


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
):
    """The scorer's sampling chains of a batch of tree nodes, in one call.

    ``uvalues`` is the batch's universe — row ``l`` holds candidate parent
    ``l``'s values at every observation some node of the batch has — and a
    node's candidate ``l * n_obs + j`` is ``(parent l, uvalues[l,
    obs[j]])``.  The native entry scores the batch parent by parent: the
    transcendental part of a margin, ``log1p(exp(-|(v - x) * beta|))``,
    does not depend on a node's +-1 sign vector, so every node reads it
    from one table of margin rows per parent, each row filled the first
    time any chain needs it, and only the sign select, the pairwise sum
    and the quantum are paid per ``(group, beta)``: one register pass over
    the node's columns, the selected row never stored.  Each chain item
    reads its Philox draws through a cursor of its own, so consecutive
    steps share a four-draw block.  One parent's table is
    ``n_beta * n_u`` rows of ``n_u``; when that passes ``table_elements``
    (default: :data:`MARGIN_TABLE_CHUNKS` evaluation chunks of the probed
    machine) nothing is shared and every node runs the fused per-row
    evaluator — a row is a pure function of its key, so the budget cannot
    change a bit of the output.  ``urow`` ranks each universe row's
    distinct values from 0 (computed when not given).

    Returns the flat ``best_score`` / ``steps`` / ``best_idx`` (``None``
    unless ``want_idx``) of all chain items, node after node, the nodes'
    ``bounds`` in them, and per node the
    ``(hits, evaluations, peak_chunk_elements)`` its own NumPy chain would
    have counted, which are accounted to the process totals here with the
    call's margin rows filled and used and its Philox blocks computed.
    """
    uvalues = np.ascontiguousarray(uvalues, dtype=np.float64)
    beta_grid = np.ascontiguousarray(beta_grid, dtype=np.float64)
    n_parents, n_u = uvalues.shape
    if urow is None:
        ranks, group_row, _values = group_rows(uvalues)
        urow = _ranks_per_row(ranks, group_row, uvalues.shape)
    for node in nodes:
        if node.obs.size:
            # A chunk holds at least one row: a node the cap forbids fails
            # here exactly when its first NumPy chunk would.
            guard_alloc(node.obs.size, "lazy-margin evaluation chunk")
    budget = table_elements
    if budget is None:
        budget = MARGIN_TABLE_CHUNKS * configured_chunk_elements()
    if _CAP is not None:  # the table is optional: a cap it passes turns it off
        budget = min(budget, _CAP)
    share = beta_grid.size * n_u * n_u <= budget
    *results, counters, table = native.score_batch(
        uvalues, np.ascontiguousarray(urow), beta_grid, nodes,
        max_steps, stop_repeats, SCORE_QUANTUM, _chunk_limit(max_chunk_elements),
        share, want_idx,
    )
    for hits, evaluations, peak in counters:
        _account_totals(hits=hits)
        if evaluations:
            _account_totals(evaluations=evaluations, peak=peak, backend="native")
    _account_margins(*table)
    return (*results, counters)


def split_sign(obs: np.ndarray, left_obs: np.ndarray) -> np.ndarray:
    """A node's left/right vector: +1.0 where an observation belongs to the
    left child, -1.0 elsewhere."""
    return np.where(np.isin(obs, left_obs), 1.0, -1.0)


def split_kernel_from_arrays(
    data: np.ndarray,
    obs: np.ndarray,
    left_obs: np.ndarray,
    parents: np.ndarray,
    beta_grid,
    *,
    max_chunk_elements: int | None = None,
    backend: str | None = None,
) -> LazySplitKernel:
    """A node's lazy kernel from raw arrays (the worker-friendly twin of
    :func:`repro.trees.splits.margins_from_arrays`).

    ``obs`` are the node's observations, ``left_obs`` its left child's; the
    candidate enumeration order (parent-major, observation-minor) matches the
    dense margins layout row for row.
    """
    obs = np.asarray(obs, dtype=np.int64)
    values = data[np.asarray(parents, dtype=np.int64)][:, obs]
    return LazySplitKernel(
        values, split_sign(obs, left_obs), beta_grid, max_chunk_elements=max_chunk_elements,
        backend=backend,
    )
