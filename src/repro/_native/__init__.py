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
   scalar libm — and **self-certifies**: every row of the certification
   table (:data:`_CERTIFICATION`) runs its probe cases through the entry
   and through an independent NumPy oracle and compares the outputs bit
   for bit — the in-kernel Philox and MRG generators, the batch entry's
   sampling chain and grid search (results and counters), the GaneSH observation and
   variable sweeps (end state, draws consumed, recorded costs; the chain
   and the sweeps computing the draws of either generator).  A provider
   that fails certification is rejected; if none survives, the backend
   reports unavailable and the ``"auto"`` setting falls back to NumPy.

One boundary stands between Python and C: every array an entry takes is
checked against the entry's row of the spec table (:data:`_SPEC`) by one
validator before C runs, and every return code an entry gives is read
from one table (:data:`_RC`).

Every ``availability()`` status distinguishes *expected* absence (no cffi,
no C compiler, explicitly disabled) from *failure* (build error, import
error, certification mismatch); the kernel-backend resolver only warns on
the latter.  All exposed entry points release the GIL for the duration of
the C call (cffi's calling convention), so scoring overlaps with other
threads; every memo the chain entry writes is its own scratch.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import itertools
import math
import os
import shutil
import sys
import sysconfig
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from repro.rng.philox import DrawSpan
from repro.rng.streams import SCORE_QUANTUM, GibbsRandom, IndexedStream, make_stream

#: loader result cache: (status, detail, provider, kernels-or-None)
_RESULT: tuple[str, str, str | None, "NativeKernels | None"] | None = None

#: statuses that mean "tried and failed" rather than "expectedly absent" —
#: the auto resolver warns once for these only
FAILURE_STATUSES = frozenset(
    {"build-failed", "load-failed", "init-failed", "certification-failed"}
)

F64, I64, BOOL = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.bool_)
#: the dtype of an entry's draws: a ``DrawSpan``, which goes in by address
DRAWS = "draws"
#: the generators the entries draw with, by stream ``name``; C's tag is the index
_GENERATORS = ("philox", "mrg")
_CTYPES = {F64: "double[]", I64: "int64_t[]", BOOL: "uint8_t[]"}


class Arg(NamedTuple):
    """An array argument of a C entry: C-contiguous ``dtype`` (with ``copy``,
    copied to it), one axis per ``shape`` entry — a size the call does not
    know yet is read off the array, one it knows must match — at least
    ``size`` entries, writable when C writes it, values in ``[0, below)``
    when C indexes by them.  ``size`` and ``below`` are expressions over
    the call's sizes and arrays; a refusal names the argument (``name``,
    else ``key``)."""

    key: str
    dtype: object
    shape: tuple = ()
    size: str = ""
    writable: bool = False
    below: str = ""
    refusal: str = ""
    copy: bool = False
    name: str = ""


class Rule(NamedTuple):
    """A relation between a call's sizes and arrays that C relies on."""

    test: str
    refusal: str


class Size(NamedTuple):
    """A size of the call derived from others, unless an argument set it."""

    name: str
    expr: str


#: the statistics and marginal buffers a sweep rewrites in place
_SWEPT = ("count", "total", "sumsq", "lm")
#: the draw check: C computes draws ``[offset, offset + count)`` of the
#: stream ``(generator, key)`` as uint64s, so neither may wrap
_ADDRESS = Rule(
    "generator in _GENERATORS and 0 <= key < 1 << 64 and offset >= 0 <= count "
    "and offset + count < 1 << 64",
    "a span must address a philox or mrg stream by a 64-bit key, its draws in "
    "[0, 2**64): got {generator!r} key {key}, offset {offset}, count {count}",
)


def _obs_sweep(n_draws: str) -> tuple:
    """The row of an observation sweep that reads ``n_draws`` draws."""
    return (
        Rule("1 <= k <= m", "cluster count must be in [1, {m}], got {k}"),
        Arg("labels", I64, ("m",), "1", True, below="k", refusal="labels must lie in [0, {k})"),
        *(Arg(key, F64, size="m + 1", writable=True) for key in _SWEPT),
        Arg("lgam", F64, size="m + 1", name="gammaln table"),
        Arg("span", DRAWS, size=n_draws),
        Rule("rows >= 1", "an observation sweep needs at least one block row"),
    )


def _var_sweep(n_draws: str, n_slots: str) -> tuple:
    """The row of a variable sweep that reads ``n_draws`` draws and may fill
    ``n_slots`` blocks."""
    return (
        Arg("var_labels", I64, ("n",), "1", True),
        Arg("member_order", I64, ("n",), "n", True, refusal="member order must list {n} variables"),
        Arg("obs_labels", I64, ("k", "m")),
        Rule(
            "1 <= k <= n and m >= 1",
            "obs labels must be a C-contiguous int64 table of 1 to {n} clusters "
            "by at least one observation",
        ),
        Arg(
            "data", F64, ("n", "m"), copy=True,
            refusal="data must have shape ({n}, {m}), got {data.shape}",
        ),
        Rule("n_blocks >= k", "offsets do not tile the block arrays"),
        Arg("offsets", I64, size="k + 1"),
        *(Arg(key, F64, size=n_slots, writable=True) for key in _SWEPT),
        Arg("span", DRAWS, size=n_draws),
        Arg("lgam", F64, size="n * m + 1", name="gammaln table"),
    )


#: the argument spec table: per C entry, its arrays and relations.  The
#: validator checks a row in two passes: every array (dtype, dimensions,
#: contiguity, size, shape, writability) and derived size in row order,
#: then every value range and rule in row order.
_SPEC = {
    "repro_uniforms": (_ADDRESS,),  # also the draw check of every span
    "repro_score_batch": (
        Arg("uvalues", F64, ("n_parents", "n_u"), name="universe values"),
        Arg(
            "urow", I64, ("n_parents", "n_u"), below="n_u", name="universe ranks",
            refusal="universe ranks must lie in [0, {n_u}), one per value",
        ),
        Arg("beta_grid", F64, ("n_beta",), "2"),
    ),
    "repro_obs_reassign_sweep": (
        *_obs_sweep("2 * m"),
        Arg(
            "block", F64, ("rows", "m"), copy=True,
            refusal="block must have shape ({rows}, {m}), got {block.shape}",
        ),
    ),
    "repro_obs_merge_sweep": _obs_sweep("k"),
    "repro_var_reassign_sweep": _var_sweep("2 * n", "n_blocks + n"),
    "repro_var_merge_sweep": _var_sweep("k", "n_blocks"),
}

#: ``repro_score_batch``'s per-node row: one ``repro_node`` struct's arrays,
#: a chain node's with the span of its items' draws
_NODE = (
    Arg(
        "obs", I64, ("n_obs",), below="n_u",
        refusal="obs must be columns of the universe, in [0, {n_u})",
    ),
    Arg("sign", F64, ("n_obs",), "n_obs", refusal="sign must have one entry per observation"),
    Size("n_items", "n_parents * n_obs"),
    Arg("span", DRAWS),
    Rule(
        "span.count == n_items * per_item",
        "span must cover exactly {per_item} draws for each of {n_items} items, "
        "got {span.count}",
    ),
)
#: a grid batch's node: the same arrays, and no span (it draws nothing)
_GRID_NODE = (
    *_NODE[:3],
    Rule("span is None", "span must be None in a grid batch, got {span!r}"),
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
        and (flags := arr.flags).c_contiguous
        and (flags.writeable or not writable)
        and arr.size >= min_size
    ):
        raise ValueError(
            f"{what} must be a {'writable ' * writable}C-contiguous {ndim}-D "
            f"{np.dtype(dtype).name} array of at least {min_size} entries"
        )
    return arr


def _refuse(refusal: str, env: dict):
    raise ValueError(refusal.format(**env))


_DTYPE_NAMES = {F64: "F64", I64: "I64", BOOL: "BOOL"}


def _address(span, need: int) -> tuple:
    """The ``(generator, key, offset)`` arguments of an entry that reads
    draws ``[0, need)`` of ``span``: it goes in by address, and the entry
    computes the draws it reaches."""
    if not isinstance(span, DrawSpan):
        raise ValueError(f"span must be a DrawSpan, got {type(span).__name__}")
    if span.count < need:
        raise ValueError(f"span must cover at least {need} draws, got {span.count}")
    _CHECKS["repro_uniforms"](
        generator=span.generator, key=span.key, offset=span.start, count=span.count
    )
    return _GENERATORS.index(span.generator), span.key, span.start


def _arg_check(arg: Arg) -> list[str]:
    """The lines of a compiled check that take one array argument (a
    span: its address)."""
    key, size = arg.key, arg.size or "0"
    if arg.dtype is DRAWS:
        return [f"generator, key, offset = _address({key}, {size})"]
    dtype = _DTYPE_NAMES[arg.dtype]
    copy = f"np.require({key}, {dtype}, ['C', 'W'])" if arg.writable else (
        f"np.ascontiguousarray({key}, {dtype})"
    )
    lines = [f"{key} = {copy}"] if arg.copy else []
    lines.append(
        f"{key} = _checked({key}, {dtype}, {size}, {arg.name or key.replace('_', ' ')!r}, "
        f"{arg.writable}, {len(arg.shape) or 1})"
    )
    for axis, dim in enumerate(arg.shape):  # a size the call knows must match
        lines += [
            f"if {dim} is None: {dim} = {key}.shape[{axis}]",
            f"elif {dim} != {key}.shape[{axis}]: _refuse({arg.refusal!r}, locals())",
        ]
    return lines


def _compile(row: tuple):
    """A spec row as one function, compiled once: it checks every array and
    derives every size in row order, then every value range and rule in row
    order, and returns its names (``locals()``), the ``generator``, ``key``
    and ``offset`` C arguments of a span among them.  It takes every name
    the row reads by keyword (``None`` when the call does not give it; a
    name it does not read is ignored)."""
    buffers, values = [], []
    for item in row:
        if type(item) is Size:
            buffers.append(f"if {item.name} is None: {item.name} = {item.expr}")
        elif type(item) is Rule:
            values.append(f"if not ({item.test}): _refuse({item.refusal!r}, locals())")
        else:
            buffers += _arg_check(item)
            if item.below:
                values.append(
                    f"if {item.key}.size and not 0 <= "
                    f"{item.key}.min() <= {item.key}.max() < ({item.below}): "
                    f"_refuse({item.refusal!r}, locals())"
                )
    body = buffers + values
    read = {
        node.id for node in ast.walk(ast.parse("\n".join(body)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    params = sorted(read - _SCOPE.keys() - vars(builtins).keys())
    source = [f"def check(*, {''.join(f'{name}=None, ' for name in params)}**_unread):"]
    source += [*("    " + line for line in body), "    return locals()"]
    scope = dict(_SCOPE)
    exec(compile("\n".join(source), "<native spec>", "exec"), scope)
    return scope["check"]


#: the names a compiled check reads that are not the call's
_SCOPE = {
    "np": np, "F64": F64, "I64": I64, "BOOL": BOOL, "_GENERATORS": _GENERATORS,
    "_checked": _checked, "_refuse": _refuse, "_address": _address,
}
#: the spec table's rows, each compiled into its check
_CHECKS = {entry: _compile(row) for entry, row in _SPEC.items()}
_NODE_CHECK, _GRID_NODE_CHECK = _compile(_NODE), _compile(_GRID_NODE)


_SCRATCH = (MemoryError, "native sweep scratch allocation failed")
_UNDESCRIBED = "statistics do not describe the labels: every "
_OBS_RC = {
    -1: _SCRATCH,
    -2: (ValueError, _UNDESCRIBED + "cluster needs count == {rows} x its number of observations"),
}
#: what ``var_begin`` answers (``_build.py``)
_VAR_RC = {
    -1: _SCRATCH,
    -2: (
        ValueError,
        "var labels and member order do not describe the clusters: every label must lie "
        "in [0, k), no cluster may be empty and each variable must be listed once, under "
        "its own cluster",
    ),
    -4: (ValueError, "obs labels must lie in [0, k_c) of their cluster"),
    -5: (ValueError, "offsets do not tile the block arrays"),
    -6: (
        ValueError, _UNDESCRIBED + "block needs count == its cluster's members x its observations"
    ),
}
#: the return-code table: per entry, what each nonzero code raises, its
#: message formatted with the call's sizes
_RC = {
    "repro_score_batch": {-1: (MemoryError, "native chain scratch allocation failed")},
    "repro_obs_reassign_sweep": _OBS_RC,
    "repro_obs_merge_sweep": _OBS_RC,
    "repro_var_reassign_sweep": _VAR_RC,
    "repro_var_merge_sweep": _VAR_RC,
}


class NativeKernels:
    """Typed wrapper over the certified cffi extension.

    Every array argument must be C-contiguous ``float64``/``int64`` of the
    sizes C indexes; the spec table checks that (:data:`_CHECKS`) before
    C runs, and a refusal is a ``ValueError`` naming the argument.  Methods
    mirror the NumPy expressions they replace and are bit-identical to them
    (enforced by :func:`_certify` before this object is ever handed out).
    """

    def __init__(self, ffi, lib, provider: str) -> None:
        self._ffi = ffi
        self._lib = lib
        self.provider = provider

    def _buffer(self, arg):
        """A C argument: an array by its buffer (``from_buffer`` takes it
        directly, no per-call ctypes helper object), ``None`` as NULL."""
        if isinstance(arg, np.ndarray):
            return self._ffi.from_buffer(_CTYPES[arg.dtype], arg)
        return self._ffi.NULL if arg is None else arg

    def _call(self, entry: str, env: dict, *args) -> None:
        """Run ``entry`` on ``args`` and raise what its return code means
        (:data:`_RC`, the message formatted with the call's names ``env``)."""
        rc = getattr(self._lib, entry)(*args)
        if rc:
            error, message = _RC[entry][rc]
            raise error(message.format(**env))

    def uniforms(self, generator: str, key: int, offset: int, count: int) -> np.ndarray:
        """Draws ``[offset, offset + count)`` of the ``generator`` stream
        (``"philox"`` or ``"mrg"``) keyed ``key``, from the generator the
        entries below draw with: what the stream's ``block(offset, count)``
        returns, bit for bit."""
        env = _CHECKS["repro_uniforms"](
            generator=generator, key=key, offset=offset, count=count
        )
        out = np.empty(count)
        self._call(
            "repro_uniforms", env, _GENERATORS.index(generator), key, offset, count,
            self._buffer(out),
        )
        return out

    def score_batch(
        self, uvalues: np.ndarray, urow: np.ndarray, beta_grid: np.ndarray, nodes,
        max_steps: int, stop_repeats: int, quantum: float, chunk_elements: int,
        share: bool, want_idx: bool = True, want_steps: bool = True, grid: bool = False,
    ):
        """``SplitScorer._run_chain`` for a batch of tree nodes in one call
        (with ``grid``, ``SplitScorer.score_grid_best_kernel``: nodes carry
        no span, nothing is drawn and ``steps`` is ``None``).

        ``uvalues`` is the batch's universe (a row of values per candidate
        parent), ``urow`` the rank of each value among its row's distinct
        ones, and a node (:class:`repro.scoring.kernel.ChainNode`) names
        its observations as universe columns: its candidate ``l * n_obs +
        j`` is ``(parent l, uvalues[l, obs[j]])``, and its chain runs over
        all of them against a scratch memo of the call's own.  With
        ``share``, nodes whose
        ``sign`` is exactly +-1 read each ``log1p(exp(-|z|))`` row from one
        table of margin rows per parent (``n_beta * n_u`` rows of ``n_u``),
        filled on first use; without, and for a node with any other sign,
        the fused row evaluator runs and nothing is shared.

        Returns the items' quantized ``best_score``, ``steps`` (with
        ``want_steps``) and ``best_idx`` (with ``want_idx``; each ``None``
        when not wanted: C keeps it in its own scratch), node after node, the
        nodes' ``bounds`` in them; per node the ``(hits, evaluations,
        peak_chunk_elements)`` its NumPy chain would have counted with
        evaluation chunks of ``chunk_elements`` elements; the table's ``(rows
        filled, row uses)`` and the Philox blocks the call computed (0 when
        every node's span is an MRG one).  Everything C indexes by is checked
        first (the batch's and every node's spec rows).
        """
        env = _CHECKS["repro_score_batch"](uvalues=uvalues, urow=urow, beta_grid=beta_grid)
        check = _GRID_NODE_CHECK if grid else _NODE_CHECK
        want_steps = want_steps and not grid
        per_item = 1 + 2 * int(max_steps)
        c_nodes = self._ffi.new("repro_node[]", len(nodes))
        bounds = np.zeros(len(nodes) + 1, dtype=np.int64)
        held = []  # the buffers behind the structs' pointers

        def pointer(arr):
            held.append(self._buffer(arr))
            return held[-1]

        for q, (node, c) in enumerate(zip(nodes, c_nodes)):
            v = check(
                n_parents=env["n_parents"], n_u=env["n_u"], per_item=per_item,
                obs=node.obs, sign=node.sign, span=node.span,
            )
            c.obs, c.sign, c.n_obs = pointer(v["obs"]), pointer(v["sign"]), v["n_obs"]
            if not grid:  # else no span: gen, key and offset stay 0
                c.gen, c.key, c.offset = v["generator"], v["key"], v["offset"]
            c.chunk_rows = max(1, int(chunk_elements) // max(1, c.n_obs))
            c.shared = bool((np.abs(node.sign) == 1.0).all())
            bounds[q + 1] = bounds[q] + v["n_items"]
        best_score = np.empty(bounds[-1])
        steps = np.empty(bounds[-1], dtype=np.int64) if want_steps else None
        best_idx = np.empty(bounds[-1], dtype=np.int64) if want_idx else None
        for c, lo, hi in zip(c_nodes, bounds, bounds[1:]):
            c.best_score = pointer(best_score[lo:hi])
            if want_steps:  # else NULL, as ffi.new leaves it
                c.steps = pointer(steps[lo:hi])
            if want_idx:
                c.best_idx = pointer(best_idx[lo:hi])
        table = np.zeros(3, dtype=np.int64)
        self._call(
            "repro_score_batch", env, pointer(env["uvalues"]), pointer(env["urow"]),
            env["n_parents"], env["n_u"], pointer(env["beta_grid"]), env["n_beta"], c_nodes,
            len(nodes), int(max_steps), int(stop_repeats), float(quantum), bool(share),
            bool(grid), pointer(table),
        )
        counters = [(c.hits, c.evaluations, c.peak) for c in c_nodes]
        return best_score, steps, best_idx, bounds, counters, tuple(table.tolist())

    def obs_sweep(
        self, block: np.ndarray | None, rows: int, labels: np.ndarray,
        stats: tuple[np.ndarray, np.ndarray, np.ndarray], lm: np.ndarray, k: int,
        span: DrawSpan, lgam: np.ndarray, prior, quantum: float, trace: bool = False,
    ) -> tuple[int, np.ndarray | None]:
        """One GaneSH observation sweep over a clustering's own state, in place.

        With ``block`` (``rows x m``) it is ``reassign_obs_sweep`` and
        consumes the first ``2 * m`` draws of ``span``; with ``block=None``
        it is ``merge_obs_sweep`` (which only needs the block's ``rows``)
        and consumes the first ``k`` — computed as the entry reads them
        (:func:`_address`).  ``labels`` (``m`` labels in ``[0, k)``),
        the three ``stats`` buffers and ``lm`` (each with at least ``m + 1``
        slots, the first ``k`` live) are updated as the NumPy loop would
        leave them; ``lgam[t]`` is ``gammaln(alpha0 + rows * t / 2)`` for
        ``t = 0..m``.  Returns the new cluster count and, with ``trace``, the
        cluster count every iteration was scored against.

        Everything the C loop indexes by is validated first, and a
        ``ValueError`` leaves the state untouched; a ``block`` that is not
        C-contiguous ``float64`` is copied.
        """
        entry = "repro_obs_merge_sweep" if block is None else "repro_obs_reassign_sweep"
        blocks = {} if block is None else {"block": block}
        env = _CHECKS[entry](
            rows=int(rows), k=int(k), labels=labels, count=stats[0], total=stats[1],
            sumsq=stats[2], lm=lm, lgam=lgam, span=span, **blocks,
        )
        m, k, b = env["m"], env["k"], self._buffer
        head = () if block is None else (b(env["block"]),)  # a merge sweep takes no block
        k_io = np.array([k], dtype=np.int64)
        k_trace = np.empty(k if block is None else m, dtype=np.int64) if trace else None
        self._call(
            entry, env, *head, env["rows"], m, b(labels),
            *map(b, stats), b(lm), b(k_io), env["generator"], env["key"], env["offset"],
            b(lgam), b(np.array(_prior_values(prior))), float(quantum), b(k_trace),
        )
        return int(k_io[0]), k_trace

    def var_sweep(
        self, data: np.ndarray, var_labels: np.ndarray, member_order: np.ndarray,
        obs_labels: np.ndarray, offsets: np.ndarray, n_blocks: int,
        stats: tuple[np.ndarray, np.ndarray, np.ndarray], lm: np.ndarray,
        span: DrawSpan, lgam: np.ndarray, prior, quantum: float,
        merge: bool = False, trace: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One GaneSH variable sweep over a packed ``CoClusterState``, in place.

        ``reassign_var_sweep`` (consumes the first ``2 * n`` draws of
        ``span``) or, with ``merge``, ``merge_var_sweep`` (the first
        ``k``).  The pack
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
        entry = "repro_var_merge_sweep" if merge else "repro_var_reassign_sweep"
        env = _CHECKS[entry](
            data=data, var_labels=var_labels, member_order=member_order,
            obs_labels=obs_labels, offsets=offsets, n_blocks=int(n_blocks), count=stats[0],
            total=stats[1], sumsq=stats[2], lm=lm, span=span, lgam=lgam,
        )
        n, k, b = env["n"], env["k"], self._buffer
        k_io = np.array([k], dtype=np.int64)
        origin, member_counts = np.empty((2, n + 1), dtype=np.int64)
        moves = np.empty(2 * (k if merge else n), dtype=np.int64) if trace else None
        self._call(
            entry, env, b(env["data"]), n, env["m"], b(var_labels), b(member_order),
            b(obs_labels), b(offsets), env["n_blocks"], b(k_io), *map(b, stats), b(lm),
            env["generator"], env["key"], env["offset"], b(lgam),
            b(np.array(_prior_values(prior))), float(quantum), b(origin), b(member_counts),
            b(moves),
        )
        k = int(k_io[0])
        return origin[:k], member_counts[:k], moves.reshape(-1, 2) if trace else None


def _prior_values(prior) -> tuple[float, ...]:
    """The normal-gamma prior as the entries take it, ``log(2 pi)`` last."""
    return (
        prior.mu0, prior.lambda0, prior.alpha0, prior.beta0, prior.log_lambda0,
        prior.log_beta0, prior.lgamma_alpha0, math.log(2.0 * math.pi),
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
        # ``compile`` returns the absolute path of the built shared object
        built = _build.ffibuilder().compile(tmpdir=tmpdir, verbose=False)
        os.replace(built, final_path)  # atomic: concurrent builders race benignly
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return final_path


class Cert(NamedTuple):
    """A row of the certification table.  ``cases()`` yields ``(label,
    case)``; ``runs(case)`` returns the NumPy runs (the first is the
    reference) and ``runs(case, kernels)`` the entry's runs; a run is the
    sequence of compared output arrays."""

    name: str
    entries: tuple[str, ...]
    cases: Callable
    runs: Callable


def _certify(kernels: NativeKernels) -> str | None:
    """Bit-compare the native entry points against NumPy, row after row of
    :data:`_CERTIFICATION`; ``None``, or ``"<name> mismatch at <label>"``
    for the first case whose runs disagree (:func:`_runs_agree`).  Every
    oracle runs on NumPy by name, so nothing here resolves a backend."""
    with np.errstate(all="ignore"):  # probe data overflows by design
        for cert in _CERTIFICATION:
            for label, case in cert.cases():
                if not _runs_agree([*cert.runs(case), *cert.runs(case, kernels)]):
                    return f"{cert.name} mismatch at {label}"
    return None


def _runs_agree(runs: list) -> bool:
    """Every run left the arrays the first (the oracle's) did."""
    return all(
        len(run) == len(runs[0])
        and all(np.array_equal(w, g, equal_nan=True) for w, g in zip(runs[0], run))
        for run in runs[1:]
    )


#: (key, offset, count) per generator: both key halves' bits, every word of
#: a Philox block as the first draw, offsets past 2**32 and 2**61, empty,
#: single and multi-block runs
_DRAW_CASES = {
    "philox": (
        (0, 0, 9), (1, 1, 4), (0x9E3779B97F4A7C15, 2, 1), ((1 << 64) - 1, 3, 257),
        (0x5EED, (1 << 34) + 5, 6), (1 << 63, (1 << 63) + 2, 3), (7, 11, 0),
    ),
    "mrg": (
        (0, 0, 1), (1, 1, 257), (0x9E3779B97F4A7C15, 2, 0),
        ((1 << 64) - 1, (1 << 32) + 5, 257), (1 << 63, (1 << 61) + 3, 1),
    ),
}


def _draws_runs(case, kernels=None):
    """The entry's draws, or the generator's definition, the stream's
    ``block`` (Philox: draw ``i`` = word ``i % 4`` at counter ``i // 4 +
    1``; MRG: the first word of ``A^(i + 1) s0`` over ``M``), and for
    Philox NumPy's own ``advance`` followed by sequential reads that start
    inside a buffered block."""
    if kernels is not None:
        return [(kernels.uniforms(*case),)]
    from numpy.random import Generator, Philox

    generator, key, offset, count = case
    runs = [(make_stream(key, backend=generator).block(offset, count),)]
    if generator == "philox":
        numpy_own = Generator(Philox(key=key).advance(offset // 4))
        numpy_own.random(offset % 4)
        runs.append((numpy_own.random(count),))
    return runs


def _batch_cases():
    """Nodes over one universe per probe under independent left/right
    signs, so a margin row read under the wrong node's sign shows, on
    tie-heavy rows, non-finite scores, SIMD-tail widths, one-step and
    one-reject chains.  Most probes hold two nodes: all of the universe
    reversed and up to nine alternate observations; their first lookups
    leave every margin row to be filled when read.  The two ``n_u=16``
    probes hold every column six times over, whose first lookups make
    some (parent, beta) blocks filled whole (a transpose left out of the
    tile fill shows there), and, on an MRG span, a run of columns from 3
    (read by plain loads) or, on a Philox one, a gathered node whose
    endpoints look like such a run; their universes hold ±0.0, a tie and
    an infinity.  The last probe's wide node is gathered over 150 columns,
    so pw_sum's halving split leaves a 78-column half whose masked tail
    follows nine full blocks, in the groups of four keys the batch sums
    at once and in the one to three keys a lookup leaves after them.
    Each node's oracle — ``SplitScorer._run_chain`` over a
    NumPy kernel — runs once per probe, on the spans of a Philox stream or
    (every other probe) an MRG one, for two cases: sharing margin rows and
    not (the fused evaluator)."""
    from repro.scoring.kernel import LazySplitKernel
    from repro.scoring.split_score import SplitScorer

    rng = np.random.default_rng(0xC4A1)
    grid, n_parents = np.array((0.25, 1.0, 4.0, 16.0)), 3
    for probe, (n_u, max_steps, stop_repeats) in enumerate((
        (1, 1, 1), (7, 4, 1), (8, 6, 2), (9, 1, 3), (129, 5, 2), (16, 2, 2), (16, 2, 2),
        (150, 2, 1),
    )):
        uvalues = rng.normal(size=(n_parents, n_u)) * 2.0
        if n_u == 16:
            uvalues[0, :2] = (0.0, -0.0)
            uvalues[1, 9] = uvalues[1, 4]
            uvalues[2, 5] = np.inf
            runs = (np.array((3, 5, 5, 6, 7, 8, 9, 10, 11)), np.arange(3, 12))
            layout = (np.tile(np.arange(n_u), 6), runs[probe % 2])
        else:
            uvalues = np.round(uvalues) / 2.0
            layout = (np.arange(n_u)[::-1].copy(), np.arange(0, n_u, 2)[:9])
        if n_u in (8, 9):
            uvalues[0, :2] = (0.0, -0.0)
            uvalues[1, -2:] = (1e308, -1e308)  # -inf scores
            uvalues[2, 0] = np.inf  # inf - inf margins: NaN scores
        scorer = SplitScorer(
            grid, max_steps=max_steps, stop_repeats=stop_repeats, kernel_backend="numpy"
        )
        chunk = 2 * layout[0].size  # two rows of the wide node
        generator = _GENERATORS[probe % 2]
        probes = []  # per node: obs, sign, span, its oracle's results and counters
        for q, obs in enumerate(layout):
            sign = np.where(rng.random(obs.size) < 0.5, 1.0, -1.0)
            span = IndexedStream(
                make_stream(0x5EED, "chain", n_u, q, backend=generator),
                scorer.draws_per_item,
            ).items_span(0, n_parents * obs.size)
            oracle = LazySplitKernel(uvalues[:, obs], sign, grid, max_chunk_elements=chunk)
            want = scorer.score_batch_kernel(oracle, span)[:3]
            counted = (oracle.hits, oracle.evaluations, oracle.peak_chunk_elements)
            probes.append((obs, sign, span, [*want, counted]))
        for share, steps in ((True, True), (False, True), *[(True, False)] * (n_u == 150)):
            rows = f"margin rows {'shared' if share else 'fused'}{'' if steps else ', no steps'}"
            label = f"n_u={n_u}, max_steps={max_steps}, {generator} span, {rows}"
            yield label, (uvalues, scorer, chunk, probes, share, steps, False)


def _grid_cases():
    """Grid batches over two universes of three parents, 17 and 150
    columns wide (the wide one tie-heavy), holding ±0, a duplicated value,
    ±1e308 (-inf scores), a subnormal and an infinity (NaN scores, which
    never improve): nodes of 1, 2, 3, 7, 8, 9, 16 and 17 columns, then of
    129 and 150 (every pairwise-sum regime and SIMD tail), runs of columns
    and gathered ones, on a shared table (a parent's blocks filled whole
    where it has enough distinct values, else row by row) and on the fused
    evaluator.  The oracle is each node's
    ``SplitScorer.score_grid_best_kernel``."""
    from repro.scoring.kernel import LazySplitKernel
    from repro.scoring.split_score import SplitScorer

    rng = np.random.default_rng(0x5EED)
    scorer = SplitScorer((0.25, 16.0), kernel_backend="numpy")
    for n_u, widths in ((17, (1, 2, 3, 7, 8, 9, 16, 17)), (150, (129, 150))):
        uvalues = rng.normal(size=(3, n_u)) * np.array([[1.0], [40.0], [1.0]])
        if n_u > 17:  # tie-heavy: wide rows, few groups
            uvalues = np.round(uvalues[[0, 0, 2]]) / 2.0
        uvalues[0, :4] = (0.0, -0.0, uvalues[0, 4], uvalues[0, 4])
        uvalues[1, -2:] = (1e308, -1e308)
        uvalues[2, :2] = (5e-324, np.inf)
        chunk, probes = 64 * n_u, []
        for q, width in enumerate(widths):
            obs = rng.permutation(n_u)[:width] if q % 2 else np.arange(n_u - width, n_u)
            sign = np.where(rng.random(width) < 0.5, 1.0, -1.0)
            oracle = LazySplitKernel(uvalues[:, obs], sign, scorer.beta_grid, max_chunk_elements=chunk)
            best, idx, _accepted = scorer.score_grid_best_kernel(oracle)
            counted = (oracle.hits, oracle.evaluations, oracle.peak_chunk_elements)
            probes.append((obs, sign, None, [best, None, idx, counted]))
        for share in (True, False):
            label = f"n_u={n_u}, grid, margin rows {'shared' if share else 'fused'}"
            yield label, (uvalues, scorer, chunk, probes, share, False, True)


def _batch_runs(case, kernels=None):
    """Every node's scores, steps (where the case asks for them) and beta
    indices, node after node, and per node the memo counters — of the NumPy
    chain or grid search, or of one batch call."""
    from repro.scoring.kernel import ChainNode, run_chains

    uvalues, scorer, chunk, probes, share, steps, grid = case
    if kernels is None:
        scores, chain_steps, idx, counted = zip(*(want for *_node, want in probes))
        kept = (scores, chain_steps, idx) if steps else (scores, idx)
        return [[*map(np.concatenate, kept), np.array(counted)]]
    nodes = [ChainNode(obs, sign, span) for obs, sign, span, _ in probes]
    # explicit budget: `share` picks the shared table or the fused evaluator
    *flat, _bounds, counters, _table = run_chains(
        kernels, uvalues, scorer.beta_grid, nodes, scorer.max_steps,
        scorer.stop_repeats, max_chunk_elements=chunk, want_steps=steps, grid=grid,
        table_elements=scorer.beta_grid.size * uvalues.shape[1] ** 2 * share,
    )
    return [[*(out for out in flat if out is not None), np.array(counters)]]


def _flavoured(data: np.ndarray, flavour: str) -> np.ndarray:
    data = np.ascontiguousarray(data)
    if flavour == "ties":
        return np.round(data * 2.0) / 2.0
    if flavour != "plain":
        data[0, 0] = float(flavour)
    return data


def _obs_cases():
    """The pairwise rule's three regimes in the block's rows, one cluster
    and all singletons (where a fresh move holds ``m + 1`` clusters before
    the drop), tie-heavy data and the non-finite score branches (an ``inf``
    and a ``1e200`` in the block), recorder on and off, each generator's
    draws."""
    from repro.ganesh.state import ObsClustering

    data = np.random.default_rng(0x0B5).normal(size=(129, 17))
    for probe, (rows, m, k, flavour) in enumerate((
        (1, 1, 1, "plain"), (7, 2, 2, "ties"), (8, 9, 1, "plain"),
        (9, 17, 17, "ties"), (129, 9, 9, "plain"), (8, 9, 3, "inf"),
        (7, 9, 3, "1e200"),
    )):
        block = _flavoured(data[:rows, :m], flavour)
        start = ObsClustering.from_block(block, np.arange(m) % k)
        generator = _GENERATORS[probe // 2 % 2]
        label = f"rows={rows}, m={m}, k={k}, {flavour}, {generator}"
        yield label, (probe, block, start, probe % 2 == 1, generator)


def _obs_runs(case, kernels=None):
    """A reassign then a merge sweep by the drivers, on the loops or (with
    ``kernels``) the entries: labels, the three statistics, ``lm``, the
    cluster count, the draws consumed and the cluster count of every iteration."""
    from repro.ganesh.coclustering import SweepHooks, merge_obs_sweep, reassign_obs_sweep
    from repro.scoring.normal_gamma import gammaln_table

    probe, block, start, traced, generator = case
    oc = start.copy()
    rng = GibbsRandom(make_stream(0x5EED, "obs-sweep", probe, backend=generator))
    lgam = None if kernels is None else gammaln_table(block.shape[1], oc.prior, block.shape[0])
    sizes: list[int] = []  # of the recorded cost vectors
    record = (lambda _ph, costs, _nc: sizes.append(len(costs))) if traced else None
    reassign_obs_sweep(oc, block, rng, SweepHooks(record), native=kernels, lgam=lgam)
    ks = [n - 1 for n in sizes]  # candidates = clusters + fresh
    del sizes[:]
    merge_obs_sweep(oc, rng, SweepHooks(record), native=kernels, lgam=lgam)
    ks += sizes
    stats = oc.stats
    counts = np.array([oc.n_clusters, rng.offset, *ks])
    return [(oc.labels, stats.count, stats.total, stats.sumsq, oc.lm, counts)]


def _var_cases():
    """A handful of tiny probes — the breadth is in
    ``tests/test_ganesh_sweeps.py`` — covering one cluster, all singletons
    (a fresh move then holds ``n + 1`` clusters), moves that open a cluster
    and that drop their source, tie-heavy data, nine observation clusters
    (the pairwise rule's unrolled regime in ``reduceat``), a non-finite
    score, and two clusters of 257 blocks whose stacked scoring calls pass
    the 512 entries ``log_marginal_core`` scores at a time — each cluster
    holds one noisy copy of each of two rows, so rows move and adopt
    marginals scored past the first 512 — recorder on and off, each
    generator's draws."""
    from repro.ganesh.state import CoClusterState

    rng = np.random.default_rng(0x7A5)
    source, pair = rng.normal(size=(5, 9)), rng.normal(size=(2, 257))
    wide = pair[[0, 0, 1, 1]] + 0.05 * rng.normal(size=(4, 257))
    for probe, (data, k, k_obs, flavour) in enumerate((
        (source[:3, :3], 1, 1, "plain"), (source[:5, :5], 5, 2, "ties"),
        (source[:4], 2, 9, "plain"), (source[:3], 2, 3, "inf"), (wide, 2, 257, "plain"),
    )):
        n, m = data.shape
        start = CoClusterState(
            _flavoured(data, flavour), np.arange(n) % k,
            [(np.arange(m) + c) % k_obs for c in range(k)],
        )
        generator = _GENERATORS[probe // 2 % 2]
        label = f"n={n}, m={m}, k={k}, {flavour}, {generator}"
        yield label, (probe, start, probe % 2 == 0, generator)


def _var_runs(case, kernels=None):
    """A reassign then a merge variable sweep, by the NumPy loops or by the
    entries: variable labels, the draws consumed, the recorded cluster
    counts and every cluster's members in order, observation labels,
    statistics and ``lm``."""
    from repro.ganesh.coclustering import SweepHooks, merge_var_sweep, reassign_var_sweep

    probe, start, traced, generator = case
    state = start.copy()
    rng = GibbsRandom(make_stream(0x5EED, "var-sweep", probe, backend=generator))
    m = state.data.shape[1]
    ks: list[float] = []  # every recorded cost vector, -1 terminated
    if kernels is None:
        record = (lambda _ph, costs, _nc: ks.extend([*(costs - m), -1])) if traced else None
        reassign_var_sweep(state, rng, SweepHooks(record))
        merge_var_sweep(state, rng, SweepHooks(record))
    else:
        for step in state.native_var_sweep(kernels, rng, trace=traced):
            ks += [*step, 0, -1]  # the fresh candidate costs m
        for step in state.native_var_sweep(kernels, rng, merge=True, trace=traced):
            ks += [*step, -1]
    run = [state.var_labels, np.array([rng.offset, state.n_clusters, *ks])]
    for cluster in state.clusters:
        obs = cluster.obs
        stats = obs.stats
        run += [cluster.members, obs.labels, stats.count, stats.total, stats.sumsq, obs.lm]
    return [run]


#: the certification table, run in order by :func:`_certify`: every probe
#: case and seed is fixed, so a load certifies the same cases every time
_CERTIFICATION = (
    Cert(
        "draws", ("repro_uniforms",),
        lambda: (
            (f"{g} key={key:#x}, offset={offset}, count={count}", (g, key, offset, count))
            for g, cases in _DRAW_CASES.items() for key, offset, count in cases
        ),
        _draws_runs,
    ),
    Cert(
        "score_batch", ("repro_score_batch",),
        lambda: itertools.chain(_batch_cases(), _grid_cases()), _batch_runs,
    ),
    Cert("obs sweep", ("repro_obs_reassign_sweep", "repro_obs_merge_sweep"), _obs_cases, _obs_runs),
    Cert("var sweep", ("repro_var_reassign_sweep", "repro_var_merge_sweep"), _var_cases, _var_runs),
)


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
    if _RESULT is None:
        _RESULT = _load_uncached()
    return _RESULT[3]


def availability() -> dict:
    """Loader outcome: ``status``/``detail``/``provider`` (forces a load)."""
    load()
    status, detail, provider, _kernels = _RESULT
    return {"status": status, "detail": detail, "provider": provider}


def invalidate() -> None:
    """Drop the cached loader outcome (tests flip env knobs around this)."""
    global _RESULT
    _RESULT = None
