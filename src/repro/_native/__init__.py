"""Native-compiled split-scoring kernels, certified against NumPy at load.

``load()`` returns a :class:`NativeKernels` handle (or ``None`` when the
backend is unavailable) and is what ``repro.scoring.kernel`` consults when
``ParallelConfig.kernel_backend`` asks for ``"native"`` or ``"auto"``.
Acquisition order:

1. ``REPRO_NATIVE_DISABLE`` in the environment disables the backend
   outright (the no-toolchain CI job and the documented escape hatch).
2. A prebuilt ``repro._native._native_kernel`` extension (installed via
   ``REPRO_BUILD_NATIVE=1 pip install .``) is imported if present.
3. Otherwise the cffi recipe in :mod:`repro._native._build` is compiled on
   demand into a per-user cache directory keyed by the source hash and
   toolchain, then imported from there.  The finished shared object is
   moved into place with an atomic rename, so concurrent ``spawn`` pool
   workers race benignly: the first build wins, everyone loads the same
   file, and later processes skip the compile entirely.  Workers receive
   no pickled state — each process resolves the module at module level
   from the same deterministic path.
4. The compiled code picks a transcendental provider — the SVML kernels
   ``dlsym``-ed out of NumPy's own ``_multiarray_umath`` extension, or
   scalar libm — and **self-certifies**: a probe battery compares the
   native evaluator, the in-kernel Philox generator, the fused sampling
   chain (results, counters and memo end state), the GaneSH observation
   and variable sweeps (end state, draws consumed, recorded costs) — the
   chain and the sweeps both reading their draws and computing them —
   grouped statistics, and normal-gamma tail against the NumPy
   implementations bit for bit.  A provider that
   fails certification is rejected; if none survives, the backend reports
   unavailable and the ``"auto"`` setting falls back to NumPy.

Every ``availability()`` status distinguishes *expected* absence (no cffi,
no C compiler, explicitly disabled) from *failure* (build error, import
error, certification mismatch); the kernel-backend resolver only warns on
the latter.  All exposed entry points release the GIL for the duration of
the C call (cffi's calling convention), so scoring overlaps with other
threads — which is why the chain entry publishes a memo slot's score before
its seen flag (release/acquire): two threads may share one memo.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import sys
import sysconfig
import tempfile
import threading

import numpy as np

from repro.rng.philox import DrawSpan, PhiloxStream
from repro.rng.streams import SCORE_QUANTUM, GibbsRandom, IndexedStream, make_stream

#: loader result cache: (status, detail, provider, kernels-or-None)
_RESULT: tuple[str, str, str | None, "NativeKernels | None"] | None = None

#: set on a thread while it runs ``_certify``.  The sweep
#: certification's oracle is the NumPy sweep loops themselves, whose scoring
#: calls resolve the backend like any other caller: on the loading thread
#: ``load()`` answers ``None`` and ``availability()`` ``"certifying"``, which
#: the resolver reads as NumPy whatever backend is configured, instead of
#: recursing into the load.  Other threads are unaffected.
_CERTIFYING = threading.local()

#: statuses that mean "tried and failed" rather than "expectedly absent" —
#: the auto resolver warns once for these only
FAILURE_STATUSES = frozenset(
    {"build-failed", "load-failed", "init-failed", "certification-failed"}
)


class NativeKernels:
    """Typed wrapper over the certified cffi extension.

    All array arguments must be C-contiguous ``float64``/``int64``; the
    callers in ``repro.scoring`` guarantee that.  Methods mirror the NumPy
    expressions they replace and are bit-identical to them (enforced by
    :func:`_certify` before this object is ever handed out).
    """

    def __init__(self, ffi, lib, provider: str) -> None:
        self._ffi = ffi
        self._lib = lib
        self.provider = provider

    # ``from_buffer`` takes the array's buffer directly (no per-call ctypes
    # helper object) and refuses a non-contiguous array instead of reading
    # past its strides.
    def _dp(self, arr: np.ndarray):
        return self._ffi.from_buffer("double[]", arr)

    def _ip(self, arr: np.ndarray):
        return self._ffi.from_buffer("int64_t[]", arr)

    def _draws(self, uniforms, need: int) -> tuple:
        """The ``(uniforms, key, offset)`` arguments of an entry that reads
        draws ``[0, need)``: a span (of a keyed stream, by construction)
        goes in by address — the entry computes the draws it reaches — and
        anything else as the ``float64`` array it is."""
        if isinstance(uniforms, DrawSpan):
            if uniforms.count < need:
                raise ValueError(f"uniforms must span at least {need} draws")
            _checked_address(uniforms.key, uniforms.start, uniforms.count)
            return self._ffi.NULL, uniforms.key, uniforms.start
        return self._dp(_checked(uniforms, np.float64, need, "uniforms")), 0, 0

    def philox_uniforms(self, key: int, offset: int, count: int) -> np.ndarray:
        """Draws ``[offset, offset + count)`` of the Philox stream keyed
        ``key``, from the generator the entries above draw with: what
        ``PhiloxStream.block(offset, count)`` returns, bit for bit."""
        _checked_address(key, offset, count)
        out = np.empty(count)
        self._lib.repro_philox_uniforms(key, offset, count, self._dp(out))
        return out

    def eval_chunk(
        self,
        group_value: np.ndarray,
        group_row: np.ndarray,
        values: np.ndarray,
        sign: np.ndarray,
        beta: float,
        quantum: float,
        out: np.ndarray,
    ) -> None:
        """Quantized log-sigmoid row scores for one same-beta chunk."""
        rc = self._lib.repro_eval_chunk(
            self._dp(group_value),
            self._ip(group_row),
            group_value.shape[0],
            self._dp(values),
            values.shape[1],
            self._dp(sign),
            float(beta),
            float(quantum),
            self._dp(out),
        )
        if rc:
            raise MemoryError("native evaluation chunk allocation failed")

    def score_batch(
        self, uvalues: np.ndarray, urow: np.ndarray, beta_grid: np.ndarray, nodes,
        max_steps: int, stop_repeats: int, quantum: float, chunk_elements: int,
        share: bool, want_idx: bool = True,
    ):
        """``SplitScorer._run_chain`` for a batch of tree nodes in one call.

        ``uvalues`` is the batch's universe (a row of values per candidate
        parent), ``urow`` the rank of each value among its row's distinct
        ones, and a node (:class:`repro.scoring.kernel.ChainNode`, which
        documents ``items`` / ``uniforms`` / the lent memo) names its
        observations as universe columns: its candidate ``l * n_obs + j``
        is ``(parent l, uvalues[l, obs[j]])``.  With ``share``, nodes whose
        ``sign`` is exactly +-1 read each ``log1p(exp(-|z|))`` row from one
        table of margin rows per parent (``n_beta * n_u`` rows of ``n_u``),
        filled on first use; without, and for a node with any other sign,
        the fused row evaluator runs and nothing is shared.

        Returns the items' quantized ``best_score``, ``steps`` and (with
        ``want_idx``; else ``None``) ``best_idx``, node after node, and the
        nodes' ``bounds`` in them; per node the ``(hits, evaluations,
        peak_chunk_elements)`` its NumPy chain would have counted with
        evaluation chunks of ``chunk_elements`` elements; the table's ``(rows
        filled, row uses)`` and the Philox blocks the call computed (0 when
        every node's draws are arrays).  Everything C indexes by is checked
        first: a ``ValueError`` leaves every memo untouched.
        """
        n_parents, n_u = _checked(
            uvalues, np.float64, 0, "universe values", writable=False, ndim=2
        ).shape
        n_beta = _checked(beta_grid, np.float64, 2, "beta grid", writable=False).shape[0]
        _checked(urow, np.int64, 0, "universe ranks", writable=False, ndim=2)
        if urow.shape != uvalues.shape or (
            urow.size and not 0 <= urow.min() <= urow.max() < n_u
        ):
            raise ValueError(f"universe ranks must lie in [0, {n_u}), one per value")
        per_item = 1 + 2 * int(max_steps)
        c_nodes = self._ffi.new("repro_node[]", len(nodes))
        bounds = np.zeros(len(nodes) + 1, dtype=np.int64)
        held = []  # the buffers behind the structs' pointers

        def pointer(cast, arr):
            held.append(cast(arr))
            return held[-1]

        for q, (node, c) in enumerate(zip(nodes, c_nodes)):
            n_obs = _checked(node.obs, np.int64, 0, "obs", writable=False).shape[0]
            if n_obs and not 0 <= node.obs.min() <= node.obs.max() < n_u:
                raise ValueError(f"obs must be columns of the universe, in [0, {n_u})")
            if _checked(node.sign, np.float64, n_obs, "sign", writable=False).shape[0] != n_obs:
                raise ValueError("sign must have one entry per observation")
            c.obs, c.sign = pointer(self._ip, node.obs), pointer(self._dp, node.sign)
            c.n_obs, c.chunk_rows = n_obs, max(1, int(chunk_elements) // max(1, n_obs))
            c.shared = bool((np.abs(node.sign) == 1.0).all())
            c.n_items = n_parents * n_obs
            if node.items is not None:
                items = _checked(node.items, np.int64, 0, "items", writable=False)
                if items.size and (
                    items.min() < 0 or items.max() >= c.n_items
                    or (np.diff(items // n_obs) < 0).any()
                ):
                    raise ValueError(
                        f"items must be candidates in [0, {c.n_items}), ascending by parent"
                    )
                c.items, c.n_items = pointer(self._ip, items), items.shape[0]
            if node.groups is not None:
                cache = _checked(node.cache, np.float64, 0, "memo cache")
                if cache.size % n_beta or not (
                    isinstance(node.seen, np.ndarray) and node.seen.dtype == np.bool_
                    and node.seen.shape == cache.shape and node.seen.flags.c_contiguous
                ):
                    raise ValueError("memo tables do not match the beta grid")
                groups = _checked(node.groups, np.int64, c.n_items, "groups", writable=False)
                if groups.shape[0] != c.n_items or (
                    c.n_items and not 0 <= groups.min() <= groups.max() < cache.size // n_beta
                ):
                    raise ValueError("groups must name one memo row per item")
                c.groups, c.cache = pointer(self._ip, groups), pointer(self._dp, cache)
                c.seen = pointer(lambda a: self._ffi.from_buffer("uint8_t[]", a), node.seen)
            if isinstance(node.uniforms, DrawSpan):  # whole rows of exactly per_item
                if node.uniforms.count != c.n_items * per_item:
                    raise ValueError(
                        f"uniforms must span exactly {per_item} draws for each of "
                        f"{c.n_items} items, got {node.uniforms.count}"
                    )
                c.stride, draws = per_item, self._draws(node.uniforms, node.uniforms.count)
            else:
                rows = np.require(node.uniforms, np.float64, ["C", "W"])
                if rows.ndim == 1 and rows.size == c.n_items * per_item:
                    rows = rows.reshape(c.n_items, per_item)  # rows end to end
                if rows.ndim != 2 or rows.shape[0] != c.n_items or rows.shape[1] < per_item:
                    raise ValueError(
                        f"uniforms must have shape ({c.n_items}, >= {per_item}), "
                        f"got {rows.shape}"
                    )
                c.stride, draws = rows.shape[1], self._draws(rows.reshape(-1), rows.size)
            held.append(draws[0])
            c.uniforms, c.key, c.offset = draws
            bounds[q + 1] = bounds[q] + c.n_items
        best_score = np.empty(bounds[-1])
        steps = np.empty(bounds[-1], dtype=np.int64)
        best_idx = np.empty(bounds[-1], dtype=np.int64) if want_idx else None
        for c, lo, hi in zip(c_nodes, bounds, bounds[1:]):
            c.best_score = pointer(self._dp, best_score[lo:hi])
            c.steps = pointer(self._ip, steps[lo:hi])
            if want_idx:
                c.best_idx = pointer(self._ip, best_idx[lo:hi])
        table = np.zeros(3, dtype=np.int64)
        rc = self._lib.repro_score_batch(
            self._dp(uvalues), self._ip(urow.reshape(-1)), n_parents, n_u,
            self._dp(beta_grid), n_beta, c_nodes, len(nodes), int(max_steps),
            int(stop_repeats), float(quantum), bool(share), self._ip(table),
        )
        if rc == -3:
            raise ValueError("start uniforms must be draws from [0, 1)")
        if rc:
            raise MemoryError("native chain scratch allocation failed")
        counters = [(c.hits, c.evaluations, c.peak) for c in c_nodes]
        return best_score, steps, best_idx, bounds, counters, tuple(table.tolist())

    def grouped(
        self, vals: np.ndarray, labels: np.ndarray, n_groups: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Fused per-group (count, total, sumsq), or ``None`` when a label
        falls outside ``[0, n_groups)`` (the caller's NumPy path then keeps
        ``np.bincount``'s implicit-widening semantics)."""
        count = np.zeros(n_groups)
        total = np.zeros(n_groups)
        sumsq = np.zeros(n_groups)
        if vals.ndim == 1:
            rc = self._lib.repro_grouped_1d(
                self._dp(vals),
                vals.shape[0],
                self._ip(labels),
                n_groups,
                self._dp(count),
                self._dp(total),
                self._dp(sumsq),
            )
        else:
            rc = self._lib.repro_grouped_2d(
                self._dp(vals),
                vals.shape[0],
                vals.shape[1],
                self._ip(labels),
                n_groups,
                self._dp(count),
                self._dp(total),
                self._dp(sumsq),
            )
        if rc == -2:
            return None
        if rc:
            raise MemoryError("native grouped-stats allocation failed")
        return count, total, sumsq

    def log_marginal(
        self,
        n: np.ndarray,
        s: np.ndarray,
        q: np.ndarray,
        lgam_alpha_n: np.ndarray,
        prior,
    ) -> np.ndarray:
        """The vectorized normal-gamma score with ``gammaln(alpha_N)``
        precomputed by the caller (SciPy both ways, so identical)."""
        out = np.empty(n.shape[0])
        self._lib.repro_log_marginal(
            self._dp(n),
            self._dp(s),
            self._dp(q),
            self._dp(lgam_alpha_n),
            n.shape[0],
            prior.mu0,
            prior.lambda0,
            prior.alpha0,
            prior.beta0,
            prior.log_lambda0,
            prior.log_beta0,
            prior.lgamma_alpha0,
            math.log(2.0 * math.pi),
            self._dp(out),
        )
        return out

    def obs_sweep(
        self,
        block: np.ndarray | None,
        rows: int,
        labels: np.ndarray,
        stats: tuple[np.ndarray, np.ndarray, np.ndarray],
        lm: np.ndarray,
        k: int,
        uniforms: np.ndarray,
        lgam: np.ndarray,
        prior,
        quantum: float,
        trace: bool = False,
    ) -> tuple[int, np.ndarray | None]:
        """One GaneSH observation sweep over a clustering's own state, in place.

        With ``block`` (``rows x m``) it is ``reassign_obs_sweep`` and
        consumes ``uniforms[:2 * m]``; with ``block=None`` it is
        ``merge_obs_sweep`` (which only needs the block's ``rows``) and
        consumes ``uniforms[:k]`` — an array, or the ``DrawSpan`` of those
        draws (:meth:`_draws`).  ``labels`` (``m`` labels in ``[0, k)``),
        the three ``stats`` buffers and ``lm`` (each with at least ``m + 1``
        slots, the first ``k`` live) are updated as the NumPy loop would
        leave them; ``lgam[t]`` is ``gammaln(alpha0 + rows * t / 2)`` for
        ``t = 0..m``.  Returns the new cluster count and, with ``trace``, the
        cluster count every iteration was scored against.

        Everything the C loop indexes by is validated first, and a
        ``ValueError`` leaves the state untouched; a ``block`` that is not
        C-contiguous ``float64`` is copied.
        """
        m = _checked(labels, np.int64, 1, "labels").shape[0]
        k, rows = int(k), int(rows)
        if not 1 <= k <= m:
            raise ValueError(f"cluster count must be in [1, {m}], got {k}")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(f"labels must lie in [0, {k})")
        for name, buf in zip(("count", "total", "sumsq", "lm"), (*stats, lm)):
            _checked(buf, np.float64, m + 1, name)
        _checked(lgam, np.float64, m + 1, "gammaln table")
        n_iterations, n_draws = (m, 2 * m) if block is not None else (k, k)
        draws = self._draws(uniforms, n_draws)
        if block is not None:
            block = np.ascontiguousarray(block, dtype=np.float64)
            if block.shape != (rows, m):
                raise ValueError(
                    f"block must have shape ({rows}, {m}), got {block.shape}"
                )
        if rows < 1:
            raise ValueError("an observation sweep needs at least one block row")
        k_io = np.array([k], dtype=np.int64)
        k_trace = np.empty(n_iterations, dtype=np.int64) if trace else None
        state = (
            self._ip(labels), *(self._dp(buf) for buf in stats), self._dp(lm),
            self._ip(k_io), *draws, self._dp(lgam),
            self._dp(_prior_vector(prior)), float(quantum),
            self._ip(k_trace) if trace else self._ffi.NULL,
        )
        if block is not None:
            rc = self._lib.repro_obs_reassign_sweep(self._dp(block), rows, m, *state)
        else:
            rc = self._lib.repro_obs_merge_sweep(rows, m, *state)
        if rc == -1:
            raise MemoryError("native sweep scratch allocation failed")
        if rc == -2:
            raise ValueError(
                "statistics do not describe the labels: every cluster needs "
                f"count == {rows} x its number of observations"
            )
        if rc:
            raise ValueError("uniforms must be draws from [0, 1)")
        return int(k_io[0]), k_trace

    def var_sweep(
        self,
        data: np.ndarray,
        var_labels: np.ndarray,
        member_order: np.ndarray,
        obs_labels: np.ndarray,
        offsets: np.ndarray,
        n_blocks: int,
        stats: tuple[np.ndarray, np.ndarray, np.ndarray],
        lm: np.ndarray,
        uniforms: np.ndarray,
        lgam: np.ndarray,
        prior,
        quantum: float,
        merge: bool = False,
        trace: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One GaneSH variable sweep over a packed ``CoClusterState``, in place.

        ``reassign_var_sweep`` (consumes ``uniforms[:2 * n]``, an array or
        the ``DrawSpan`` of those draws) or, with ``merge``,
        ``merge_var_sweep`` (``uniforms[:k]``).  The pack
        (ALGORITHMS.md §13): ``var_labels`` (``n`` labels in ``[0, k)``),
        ``member_order`` (the clusters' members, cluster after cluster, each
        in its own order), ``obs_labels`` (``k x m``, row ``c`` in ``[0,
        k_c)``), ``offsets`` (``k + 1``: cluster ``c``'s blocks are
        ``offsets[c]:offsets[c + 1]`` of the three ``stats`` buffers and
        ``lm``, ``n_blocks`` in all) and ``lgam[t] = gammaln(alpha0 + t / 2)``
        for ``t = 0..n * m``.  A reassign sweep appends the one block of
        every cluster it opens from ``n_blocks`` on, so its buffers need
        ``n_blocks + n`` slots.

        Returns, for the clusters the sweep leaves, in order: where each
        came from (an entry cluster's index, or ``k + j`` for the ``j``-th
        opened, whose block is ``n_blocks + j``) and its member count —
        ``member_order`` and ``var_labels`` are rewritten to match — and,
        with ``trace``, per iteration ``(opened a cluster, position dropped
        or -1)``.

        Everything the C loop indexes by is validated first and a
        ``ValueError`` leaves the pack untouched; a ``data`` that is not
        C-contiguous ``float64`` is copied.
        """
        n = _checked(var_labels, np.int64, 1, "var labels").shape[0]
        if _checked(member_order, np.int64, n, "member order").shape[0] != n:
            raise ValueError(f"member order must list {n} variables")
        if not (
            isinstance(obs_labels, np.ndarray)
            and obs_labels.dtype == np.int64
            and obs_labels.ndim == 2
            and obs_labels.flags.c_contiguous
            and 1 <= obs_labels.shape[0] <= n
            and obs_labels.shape[1] >= 1
        ):
            raise ValueError(
                "obs labels must be a C-contiguous int64 table of 1 to "
                f"{n} clusters by at least one observation"
            )
        k, m = obs_labels.shape
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != (n, m):
            raise ValueError(f"data must have shape ({n}, {m}), got {data.shape}")
        n_blocks = int(n_blocks)
        if n_blocks < k:
            raise ValueError("offsets do not tile the block arrays")
        _checked(offsets, np.int64, k + 1, "offsets")
        n_iterations, n_draws, n_slots = (k, k, n_blocks) if merge else (n, 2 * n, n_blocks + n)
        for name, buf in zip(("count", "total", "sumsq", "lm"), (*stats, lm)):
            _checked(buf, np.float64, n_slots, name)
        draws = self._draws(uniforms, n_draws)
        _checked(lgam, np.float64, n * m + 1, "gammaln table")
        k_io = np.array([k], dtype=np.int64)
        origin = np.empty(n + 1, dtype=np.int64)
        member_counts = np.empty(n + 1, dtype=np.int64)
        moves = np.empty(2 * n_iterations, dtype=np.int64) if trace else None
        sweep = self._lib.repro_var_merge_sweep if merge else self._lib.repro_var_reassign_sweep
        rc = sweep(
            self._dp(data), n, m, self._ip(var_labels), self._ip(member_order),
            self._ip(obs_labels.reshape(-1)), self._ip(offsets), n_blocks,
            self._ip(k_io), *(self._dp(buf) for buf in stats), self._dp(lm),
            *draws, self._dp(lgam), self._dp(_prior_vector(prior)),
            float(quantum), self._ip(origin), self._ip(member_counts),
            self._ip(moves) if trace else self._ffi.NULL,
        )
        if rc:
            if rc == -1:
                raise MemoryError("native sweep scratch allocation failed")
            raise ValueError(_VAR_SWEEP_REFUSALS[rc])
        k = int(k_io[0])
        return origin[:k], member_counts[:k], moves.reshape(-1, 2) if trace else None


def _checked_address(key: int, offset: int, count: int) -> None:
    """Refuse what would wrap in C: the key and every draw index are uint64."""
    if not (0 <= key < 1 << 64 and offset >= 0 <= count and offset + count < 1 << 64):
        raise ValueError(
            "a Philox key must fit 64 bits and the draws lie in [0, 2**64): "
            f"got key {key}, offset {offset}, count {count}"
        )


def _checked(
    arr, dtype, min_size: int, what: str, writable: bool = True, ndim: int = 1
) -> np.ndarray:
    """``arr`` if C code may index ``min_size`` entries of ``dtype`` in it
    (and, unless it only reads them, write them)."""
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.ndim == ndim
        and arr.flags.c_contiguous
        and (arr.flags.writeable or not writable)
        and arr.size >= min_size
    ):
        raise ValueError(
            f"{what} must be a {'writable ' * writable}C-contiguous {ndim}-D "
            f"{np.dtype(dtype).name} array of at least {min_size} entries"
        )
    return arr


#: what ``var_begin`` answers (``_build.py``)
_VAR_SWEEP_REFUSALS = {
    -2: "var labels and member order do not describe the clusters: every "
    "label must lie in [0, k), no cluster may be empty and each variable "
    "must be listed once, under its own cluster",
    -3: "uniforms must be draws from [0, 1)",
    -4: "obs labels must lie in [0, k_c) of their cluster",
    -5: "offsets do not tile the block arrays",
    -6: "statistics do not describe the labels: every block needs "
    "count == its cluster's members x its observations",
}


def _prior_vector(prior) -> np.ndarray:
    return np.array(
        [
            prior.mu0, prior.lambda0, prior.alpha0, prior.beta0,
            prior.log_lambda0, prior.log_beta0, prior.lgamma_alpha0,
            math.log(2.0 * math.pi),
        ]
    )


def _numpy_umath_path() -> str | None:
    """The shared object whose SVML exports the svml provider resolves."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # pragma: no cover - numpy < 2
        try:
            from numpy.core import _multiarray_umath  # type: ignore
        except ImportError:
            return None
    return getattr(_multiarray_umath, "__file__", None)


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    candidates = [cc] if cc else ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _cache_dir(source_key: str) -> str:
    root = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-native"
    )
    return os.path.join(root, source_key)


def _source_key() -> str:
    from repro._native import _build

    h = hashlib.sha256()
    h.update(_build.CSOURCE.encode())
    h.update(_build.CDEF.encode())
    h.update(sys.version.encode())
    h.update(np.__version__.encode())
    h.update(sysconfig.get_platform().encode())
    return h.hexdigest()[:16]


def _ext_filename() -> str:
    return "_native_kernel" + (sysconfig.get_config_var("EXT_SUFFIX") or ".so")


def _import_extension(path: str):
    import importlib.util

    # The last dotted component must match the extension's PyInit symbol.
    spec = importlib.util.spec_from_file_location(
        "repro._native._native_kernel", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build_on_demand() -> str:
    """Compile the cffi recipe into the cache, atomically; return the
    final shared-object path (reused as-is when it already exists)."""
    final_dir = _cache_dir(_source_key())
    final_path = os.path.join(final_dir, _ext_filename())
    if os.path.exists(final_path):
        return final_path
    from repro._native import _build

    os.makedirs(final_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="build-", dir=final_dir)
    try:
        built = _build.ffibuilder.compile(tmpdir=tmpdir, verbose=False)
        # cffi nests the output under the dotted module path; find the .so.
        so_path = built
        if not os.path.isfile(so_path):  # pragma: no cover - cffi variants
            for root, _dirs, files in os.walk(tmpdir):
                for name in files:
                    if name.endswith(
                        (".so", ".dylib", ".pyd")
                    ) and "_native_kernel" in name:
                        so_path = os.path.join(root, name)
        os.replace(so_path, final_path)  # atomic: concurrent builders race benignly
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return final_path


def _reference_row_scores(z: np.ndarray, quantum: float) -> np.ndarray:
    t = np.log1p(np.exp(-np.abs(z)))
    out = np.where(z > 0, -t, z - t)
    scores = out.sum(axis=1)
    return np.round(scores / quantum) * quantum


def _certify(kernels: NativeKernels) -> str | None:
    """Bit-compare the native entry points against NumPy on a probe
    battery; return ``None`` on success or a mismatch description."""
    _CERTIFYING.active = True
    try:
        with np.errstate(all="ignore"):  # probe data overflows by design
            return _certify_battery(kernels)
    finally:
        _CERTIFYING.active = False


def _certify_battery(kernels: NativeKernels) -> str | None:
    quantum = 1e-9
    rng = np.random.default_rng(0x5EED)

    # -- eval_chunk vs the NumPy chunk body --------------------------------
    for n_obs in (1, 2, 3, 7, 8, 9, 16, 17, 129, 150):
        for scale in (1.0, 40.0):
            n_parents = 3
            values = np.ascontiguousarray(
                rng.normal(scale=scale, size=(n_parents, n_obs))
            )
            if n_obs >= 8:  # duplicate-heavy + special values
                values[0, :4] = (0.0, -0.0, values[0, 4], values[0, 4])
                values[1, -2:] = (1e308, -1e308)
                values[2, 0] = 5e-324
            sign = np.ascontiguousarray(
                np.where(rng.random(n_obs) < 0.5, 1.0, -1.0)
            )
            n_rows = 5
            group_row = np.ascontiguousarray(
                rng.integers(0, n_parents, size=n_rows)
            )
            group_value = np.ascontiguousarray(
                values[group_row, rng.integers(0, n_obs, size=n_rows)]
            )
            for beta in (0.25, 1.0, 16.0):
                diff = group_value[:, None] - values[group_row]
                z = (sign * diff) * beta
                want = _reference_row_scores(z, quantum)
                got = np.empty(n_rows)
                kernels.eval_chunk(
                    group_value, group_row, values, sign, beta, quantum, got
                )
                if not np.array_equal(got, want, equal_nan=True):
                    return f"eval_chunk mismatch at n_obs={n_obs}, beta={beta}"

    # -- the in-kernel Philox vs PhiloxStream.block; score_batch vs
    # SplitScorer._run_chain over the NumPy kernel; the observation and
    # variable sweeps vs the NumPy sweep loops ------------------------------
    for certify in (
        _certify_philox, _certify_batch, _certify_obs_sweep, _certify_var_sweep
    ):
        mismatch = certify(kernels)
        if mismatch is not None:
            return mismatch

    # -- grouped stats vs the np.bincount formulas -------------------------
    for rows, cols in (
        (1, 6), (5, 1), (200, 1), (7, 30), (64, 13), (0, 4), (3000, 3),
    ):
        vals = np.ascontiguousarray(rng.normal(scale=1e3, size=(rows, cols)))
        labels = np.ascontiguousarray(rng.integers(0, 3, size=cols))
        got = kernels.grouped(vals, labels, 3)
        want_count = rows * np.bincount(labels, minlength=3).astype(np.float64)
        want_total = np.bincount(labels, weights=vals.sum(axis=0), minlength=3)
        want_sumsq = np.bincount(
            labels, weights=(vals * vals).sum(axis=0), minlength=3
        )
        if got is None or not all(
            np.array_equal(g, w)
            for g, w in zip(got, (want_count, want_total, want_sumsq))
        ):
            return f"grouped_2d mismatch at shape ({rows}, {cols})"
        flat = np.ascontiguousarray(rng.normal(size=max(rows, 1) * cols))
        labels1 = np.ascontiguousarray(rng.integers(0, 4, size=flat.size))
        got1 = kernels.grouped(flat, labels1, 4)
        want1 = (
            np.bincount(labels1, minlength=4).astype(np.float64),
            np.bincount(labels1, weights=flat, minlength=4),
            np.bincount(labels1, weights=flat * flat, minlength=4),
        )
        if got1 is None or not all(
            np.array_equal(g, w) for g, w in zip(got1, want1)
        ):
            return "grouped_1d mismatch"

    # -- log_marginal vs the NumPy expression ------------------------------
    from scipy.special import gammaln

    class _Prior:
        mu0, lambda0, alpha0, beta0 = 0.0, 0.1, 0.1, 0.1
        log_lambda0 = math.log(0.1)
        log_beta0 = math.log(0.1)
        lgamma_alpha0 = math.lgamma(0.1)

    prior = _Prior()
    for size in (1, 7, 8, 9, 511, 513):
        n = np.ascontiguousarray(
            rng.integers(0, 40, size=size).astype(np.float64)
        )
        s = np.ascontiguousarray(rng.normal(scale=10.0, size=size))
        q = np.ascontiguousarray(np.abs(rng.normal(scale=100.0, size=size)))
        n_safe = np.where(n > 0, n, 1.0)
        xbar = s / n_safe
        ss = np.maximum(q - n_safe * xbar * xbar, 0.0)
        lam_n = prior.lambda0 + n
        alpha_n = prior.alpha0 + n / 2.0
        d = xbar - prior.mu0
        beta_n = prior.beta0 + ss / 2.0 + prior.lambda0 * n * d * d / (2.0 * lam_n)
        want = (
            gammaln(alpha_n)
            - prior.lgamma_alpha0
            + prior.alpha0 * prior.log_beta0
            - alpha_n * np.log(beta_n)
            + 0.5 * (prior.log_lambda0 - np.log(lam_n))
            - (n / 2.0) * math.log(2.0 * math.pi)
        )
        want = np.where(n > 0, want, 0.0)
        got = kernels.log_marginal(
            n, s, q, np.ascontiguousarray(gammaln(alpha_n)), prior
        )
        if not np.array_equal(got, want, equal_nan=True):
            return f"log_marginal mismatch at size {size}"
    return None


#: (key, offset, count): both key halves' bits, every word of a block as the
#: first draw, counters past 2**32 and 2**61, empty and multi-block runs
_PHILOX_CASES = (
    (0, 0, 9), (1, 1, 4), (0x9E3779B97F4A7C15, 2, 1), ((1 << 64) - 1, 3, 257),
    (0x5EED, (1 << 34) + 5, 6), (1 << 63, (1 << 63) + 2, 3), (7, 11, 0),
)


def _certify_philox(kernels: NativeKernels) -> str | None:
    """The generator the keyed entries draw with against its definition,
    ``PhiloxStream.block`` (draw ``i`` = word ``i % 4`` at counter ``i // 4 +
    1``), and against NumPy's own ``advance`` followed by sequential reads
    that start inside a buffered block."""
    from numpy.random import Generator, Philox

    for key, offset, count in _PHILOX_CASES:
        got = kernels.philox_uniforms(key, offset, count)
        numpy_own = Generator(Philox(key=key).advance(offset // 4))
        numpy_own.random(offset % 4)
        for want in (PhiloxStream(key).block(offset, count), numpy_own.random(count)):
            if not np.array_equal(got, want):
                return f"philox draws mismatch at key={key:#x}, offset={offset}, count={count}"
    return None


def _certify_batch(kernels: NativeKernels) -> str | None:
    """The batch chain entry against the NumPy chain it replaces, node by
    node: scores, steps, beta indices, memo counters and a lent memo's end
    state, on tie-heavy rows, non-finite scores, SIMD-tail widths, one-step
    and one-reject chains.  Each probe scores two nodes over one universe
    (all of it reversed, from a mid-parent candidate on; up to nine
    alternate observations) under independent left/right signs, so a margin
    row read under the wrong node's sign shows: with lent memos and array
    draws, then with scratch memos and draws computed from the span's
    address, sharing margin rows and not (the fused evaluator)."""
    from repro.scoring.kernel import (
        ChainNode, LazySplitKernel, isolated_kernel_totals, run_chains,
    )
    from repro.scoring.split_score import SplitScorer

    rng = np.random.default_rng(0xC4A1)
    grid, n_parents = np.array((0.25, 1.0, 4.0, 16.0)), 3
    for n_u, max_steps, stop_repeats, first in (
        (1, 1, 1, 0), (7, 4, 1, 0), (8, 6, 2, 3), (9, 1, 3, 0), (129, 5, 2, 5),
    ):
        uvalues = np.round(rng.normal(size=(n_parents, n_u)) * 2.0) / 2.0
        if n_u in (8, 9):
            uvalues[0, :2] = (0.0, -0.0)
            uvalues[1, -2:] = (1e308, -1e308)  # -inf scores
            uvalues[2, 0] = np.inf  # inf - inf margins: NaN scores
        scorer = SplitScorer(grid, max_steps=max_steps, stop_repeats=stop_repeats)
        chunk = {"max_chunk_elements": 2 * n_u}  # two rows of the wide node
        probes = []  # per node: obs, sign, items, span, oracle kernel, its results
        with isolated_kernel_totals():
            for q, obs in enumerate((np.arange(n_u)[::-1].copy(), np.arange(0, n_u, 2)[:9])):
                sign = np.where(rng.random(obs.size) < 0.5, 1.0, -1.0)
                items = np.arange(0 if q else first, n_parents * obs.size)
                span = IndexedStream(
                    make_stream(0x5EED, "chain", n_u, q), scorer.draws_per_item
                ).items_span(int(items[0]), items.size)
                oracle = LazySplitKernel(
                    uvalues[:, obs], sign, grid, backend="numpy", **chunk
                )
                want = scorer.score_batch_kernel(oracle, span, item_indices=items)[:3]
                probes.append((obs, sign, items, span, oracle, want))
            # an explicit table budget: the default would probe the machine
            for lend, share in ((True, True), (False, True), (False, False)):
                nodes = [
                    ChainNode(obs, sign, span.array() if lend else span, items, *(
                        (oracle.item_groups[items], np.zeros_like(oracle._cache),
                         np.zeros_like(oracle._seen)) if lend else ()
                    ))
                    for obs, sign, items, span, oracle, _want in probes
                ]
                *flat, bounds, counters = run_chains(
                    kernels, uvalues, grid, nodes, max_steps, stop_repeats,
                    table_elements=grid.size * n_u * n_u * share, **chunk,
                )
                for node, lo, hi, counted, (*_probe, oracle, want) in zip(
                    nodes, bounds, bounds[1:], counters, probes
                ):
                    memo = (oracle.hits, oracle.evaluations, oracle.peak_chunk_elements)
                    runs = [(*want, memo), (*(part[lo:hi] for part in flat), counted)]
                    if lend:
                        runs[0] += (oracle._seen, oracle._cache[oracle._seen])
                        runs[1] += (node.seen, node.cache[node.seen])
                    if not _runs_agree(runs):
                        return (
                            f"score_batch mismatch at n_obs={node.obs.size} of {n_u}, "
                            f"max_steps={max_steps}, {'lent' if lend else 'scratch'} memo, "
                            f"margin rows {'shared' if share else 'fused'}"
                        )
    return None


class _PreDrawn(GibbsRandom):
    """A replicated stream that hands the sweep entries arrays, not spans."""

    def span(self, count: int) -> np.ndarray:
        return self.uniforms(count)


#: what every sweep probe runs: the NumPy loops (the oracle), then the entry
#: reading pre-drawn uniforms, then the entry computing its Philox draws
_SWEEP_RUNS = ((False, GibbsRandom), (True, _PreDrawn), (True, GibbsRandom))


def _runs_agree(runs: list) -> bool:
    """Every run left the arrays the first (the oracle's) did."""
    return all(
        len(run) == len(runs[0])
        and all(np.array_equal(w, g, equal_nan=True) for w, g in zip(runs[0], run))
        for run in runs[1:]
    )


def _certify_obs_sweep(kernels: NativeKernels) -> str | None:
    """The two sweep entries against the NumPy sweep loops they replace
    (which, on the certifying thread, score through NumPy): labels, the
    three statistics, ``lm``, the cluster count, the draws consumed and the
    cluster count of every iteration, in both draw modes.  Probes cover the
    pairwise rule's three regimes in the block's rows, one cluster and all
    singletons (where a fresh move holds ``m + 1`` clusters before the drop),
    tie-heavy data and the non-finite score branches (an ``inf`` and a
    ``1e200`` in the block)."""
    from repro.ganesh.coclustering import (
        SweepHooks, merge_obs_sweep, reassign_obs_sweep,
    )
    from repro.ganesh.state import ObsClustering

    data = np.random.default_rng(0x0B5).normal(size=(129, 17))
    for probe, (rows, m, k, flavour) in enumerate((
        (1, 1, 1, "plain"), (7, 2, 2, "ties"), (8, 9, 1, "plain"),
        (9, 17, 17, "ties"), (129, 9, 9, "plain"), (8, 9, 3, "inf"),
        (7, 9, 3, "1e200"),
    )):
        block = np.ascontiguousarray(data[:rows, :m])
        if flavour == "ties":
            block = np.round(block * 2.0) / 2.0
        elif flavour != "plain":
            block[0, 0] = float(flavour)
        start = ObsClustering.from_block(block, np.arange(m) % k)
        traced = probe % 2 == 1
        runs = []
        for native, stream_type in _SWEEP_RUNS:
            oc = start.copy()
            rng = stream_type(make_stream(0x5EED, "obs-sweep", probe))
            if not native:
                sizes: list[int] = []  # of the recorded cost vectors
                hooks = SweepHooks(
                    (lambda _ph, costs, _nc: sizes.append(len(costs))) if traced else None
                )
                reassign_obs_sweep(oc, block, rng, hooks)
                ks = [n - 1 for n in sizes]  # candidates = clusters + fresh
                del sizes[:]
                merge_obs_sweep(oc, rng, hooks)
                ks += sizes
            else:
                ks = oc.native_sweep(kernels, rng, block, trace=traced)
                ks += oc.native_sweep(kernels, rng, trace=traced)
            runs.append((
                oc.labels, oc.stats.count, oc.stats.total, oc.stats.sumsq, oc.lm,
                np.array([oc.n_clusters, rng.offset, *ks]),
            ))
        if not _runs_agree(runs):
            return f"obs sweep mismatch at rows={rows}, m={m}, k={k}, {flavour}"
    return None


def _certify_var_sweep(kernels: NativeKernels) -> str | None:
    """The two variable-sweep entries against the NumPy sweep loops (a
    reassign then a merge sweep per probe): variable labels, every cluster's
    members in order, observation labels, statistics and ``lm``, the draws
    consumed and the recorded cluster counts, in both draw modes.  A handful
    of tiny probes — the breadth is in ``tests/test_ganesh_sweeps.py`` —
    covering one cluster, all singletons (a fresh move then holds ``n + 1``
    clusters), moves that open a cluster and that drop their source,
    tie-heavy data, nine observation clusters (the pairwise rule's unrolled
    regime in ``reduceat``) and a non-finite score."""
    from repro.ganesh.coclustering import (
        SweepHooks, merge_var_sweep, reassign_var_sweep,
    )
    from repro.ganesh.state import CoClusterState

    source = np.random.default_rng(0x7A5).normal(size=(5, 9))
    for probe, (n, m, k, k_obs, flavour) in enumerate((
        (3, 3, 1, 1, "plain"), (5, 5, 5, 2, "ties"), (4, 9, 2, 9, "plain"),
        (3, 9, 2, 3, "inf"),
    )):
        data = np.ascontiguousarray(source[:n, :m])
        if flavour == "ties":
            data = np.round(data * 2.0) / 2.0
        elif flavour != "plain":
            data[0, 0] = float(flavour)
        start = CoClusterState(
            data, np.arange(n) % k, [(np.arange(m) + c) % k_obs for c in range(k)]
        )
        traced = probe % 2 == 0
        runs = []
        for native, stream_type in _SWEEP_RUNS:
            state = start.copy()
            rng = stream_type(make_stream(0x5EED, "var-sweep", probe))
            ks: list[float] = []  # every recorded cost vector, -1 terminated
            if not native:
                hooks = SweepHooks(
                    (lambda _ph, costs, _nc: ks.extend([*(costs - m), -1]))
                    if traced else None
                )
                reassign_var_sweep(state, rng, hooks)
                merge_var_sweep(state, rng, hooks)
            else:
                for step in state.native_var_sweep(kernels, rng, trace=traced):
                    ks += [*step, 0, -1]  # the fresh candidate costs m
                for step in state.native_var_sweep(kernels, rng, merge=True, trace=traced):
                    ks += [*step, -1]
            runs.append([
                state.var_labels, np.array([rng.offset, state.n_clusters, *ks]),
                *(
                    part
                    for cluster in state.clusters
                    for part in (
                        cluster.members, cluster.obs.labels, cluster.obs.stats.count,
                        cluster.obs.stats.total, cluster.obs.stats.sumsq, cluster.obs.lm,
                    )
                ),
            ])
        if not _runs_agree(runs):
            return f"var sweep mismatch at n={n}, m={m}, k={k}, {flavour}"
    return None


def _load_uncached() -> tuple[str, str, str | None, NativeKernels | None]:
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return "disabled", "REPRO_NATIVE_DISABLE is set", None, None

    module = None
    try:  # a prebuilt installed extension wins
        from repro._native import _native_kernel as module  # type: ignore
    except ImportError:
        pass

    if module is None:
        try:
            import cffi  # noqa: F401
        except ImportError:
            return "no-cffi", "cffi is not installed", None, None
        if _find_compiler() is None:
            return "no-compiler", "no C compiler on PATH", None, None
        try:
            path = _build_on_demand()
        except Exception as exc:
            return "build-failed", f"{type(exc).__name__}: {exc}", None, None
        try:
            module = _import_extension(path)
        except Exception as exc:
            return "load-failed", f"{type(exc).__name__}: {exc}", None, None

    ffi, lib = module.ffi, module.lib
    detail = ""
    for provider in ("svml", "libm"):
        if provider == "svml":
            umath = _numpy_umath_path()
            if umath is None:
                detail = "numpy umath shared object not found; "
                continue
            rc = lib.repro_native_init(umath.encode(), 1)
            if rc != 1:
                detail += f"svml init failed (rc={rc}); "
                continue
        else:
            lib.repro_native_init(b"", 0)
        kernels = NativeKernels(ffi, lib, provider)
        try:
            mismatch = _certify(kernels)
        except Exception as exc:  # pragma: no cover - probe crash
            mismatch = f"{type(exc).__name__}: {exc}"
        if mismatch is None:
            return "native", f"provider={provider}", provider, kernels
        detail += f"{provider}: {mismatch}; "
    return "certification-failed", detail.strip("; "), None, None


def load() -> NativeKernels | None:
    """The certified native kernels, or ``None`` (cached per process)."""
    global _RESULT
    if getattr(_CERTIFYING, "active", False):
        return None
    if _RESULT is None:
        _RESULT = _load_uncached()
    return _RESULT[3]


def availability() -> dict:
    """Loader outcome: ``status``/``detail``/``provider`` (forces a load)."""
    if getattr(_CERTIFYING, "active", False):
        return {"status": "certifying", "detail": "", "provider": None}
    load()
    status, detail, provider, _kernels = _RESULT
    return {"status": status, "detail": detail, "provider": provider}


def invalidate() -> None:
    """Drop the cached loader outcome (tests flip env knobs around this)."""
    global _RESULT
    _RESULT = None
