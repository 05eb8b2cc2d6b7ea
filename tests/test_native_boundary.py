"""The native boundary's three tables (``repro._native``).

* **completeness** — every entry ``_build.CDEF`` declares has exactly one
  argument spec row and at least one certification row, and no row names
  an entry it does not declare;
* **the spec table** — every array argument of every row, passed with the
  wrong dtype, the wrong number of dimensions, not C-contiguous, shorter
  than its row allows, read-only where C writes it or holding a negative
  index where C indexes by its values, is refused with a ``ValueError``
  that names it, before any C entry is reached — and every span, handed
  over as an array or covering one draw too few; a grid batch's node
  carrying a span and a chain batch's node carrying none are refused too;
* **the certification table** — every row fails certification by name when
  its entry's output is moved one ulp, and a variable sweep wrong only past
  the first 512 stacked blocks fails the probe that stacks that many.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro import _native
from repro.ganesh.state import CoClusterState, ObsClustering
from repro.rng.streams import GibbsRandom, IndexedStream, make_stream
from repro.scoring.kernel import ChainNode

needs_native = pytest.mark.skipif(
    _native.load() is None,
    reason=f"native backend unavailable ({_native.availability()['status']})",
)


def test_every_entry_has_one_spec_row_and_a_certification_row():
    pytest.importorskip("cffi")
    from repro._native import _build

    declared = set(re.findall(r"\b(repro_\w+)\(", _build.CDEF))
    declared -= {"repro_native_init", "repro_native_provider"}
    certified = [entry for row in _native._CERTIFICATION for entry in row.entries]
    assert set(_native._SPEC) == declared  # dict keys: one row each
    assert set(certified) == declared
    assert set(_native._RC) <= declared


_STATS = ("count", "total", "sumsq")
_NODE_FIELDS = ("obs", "sign", "span")


#: the batch entry's grid search, spanless nodes: a row of its own here
_GRID = "repro_score_batch (grid)"


def _valid_call(entry):
    """A call of the ``NativeKernels`` method behind ``entry`` that passes
    the spec table: ``(method name, keyword arguments)``."""
    rng = np.random.default_rng(7)
    if entry in ("repro_score_batch", _GRID):
        n_parents, n_u, per_item = 2, 6, 5
        n_items = n_parents * n_u
        grid = entry == _GRID
        node = ChainNode(
            np.arange(n_u), np.where(np.arange(n_u) % 2, 1.0, -1.0),
            None if grid else IndexedStream(make_stream(1, "u"), per_item).items_span(0, n_items),
        )
        return "score_batch", dict(
            uvalues=rng.normal(size=(n_parents, n_u)),
            urow=np.tile(np.arange(n_u), (n_parents, 1)), beta_grid=np.arange(1.0, 5.0),
            nodes=[node], max_steps=2, stop_repeats=1, quantum=1e-9, chunk_elements=64,
            share=True, grid=grid,
        )
    if entry in ("repro_obs_reassign_sweep", "repro_obs_merge_sweep"):
        m, k, rows = 6, 3, 4
        block = rng.normal(size=(rows, m))
        oc = ObsClustering.from_block(block, np.arange(m) % k)
        merge = entry == "repro_obs_merge_sweep"
        return "obs_sweep", dict(
            block=None if merge else block, rows=rows, labels=oc.labels,
            stats=oc.stats.reserve(m + 1), lm=np.zeros(m + 1), k=k,
            span=GibbsRandom(make_stream(1, "u")).span(k if merge else 2 * m),
            lgam=np.zeros(m + 1), prior=oc.prior, quantum=1e-9,
        )
    merge = entry == "repro_var_merge_sweep"
    state = CoClusterState(
        rng.normal(size=(5, 4)), np.arange(5) % 2, [np.arange(4) % 2, np.arange(4) % 3]
    )
    pack = state.var_sweep_pack(merge)
    for buffer in (*pack["stats"], pack["lm"]):  # uninitialised reserved slots
        buffer[pack["n_blocks"]:] = 0.0  # would make _variants' float32 cast warn
    pack["span"] = GibbsRandom(make_stream(1, "u", backend="mrg")).span(2 if merge else 10)
    return "var_sweep", pack


def _get(kwargs, key):
    if key in _STATS:
        return kwargs["stats"][_STATS.index(key)]
    if key in _NODE_FIELDS and "nodes" in kwargs:
        return getattr(kwargs["nodes"][0], key)
    return kwargs[key]


def _set(kwargs, key, value):
    kwargs = dict(kwargs)
    if key in _STATS:
        stats = list(kwargs["stats"])
        stats[_STATS.index(key)] = value
        kwargs["stats"] = tuple(stats)
    elif key in _NODE_FIELDS and "nodes" in kwargs:
        kwargs["nodes"] = [dataclasses.replace(kwargs["nodes"][0], **{key: value})]
    else:
        kwargs[key] = value
    return kwargs


def _read_only(arr):
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _variants(arg, valid, need):
    """The refusable versions of a valid array: a ``copy`` argument is
    converted, not refused, for its dtype, contiguity and writability.  A
    span's are its draws as an array and the span one draw short."""
    if arg.dtype is _native.DRAWS:
        yield "array", valid.array()
        yield "short", valid.stream.span(valid.start, valid.count - 1)
        return
    other = {"f": np.float32, "i": np.int32, "b": np.int8}[valid.dtype.kind]
    if not arg.copy:
        yield "dtype", valid.astype(other)
        yield "strided", np.repeat(valid, 2, axis=-1)[..., ::2]
    yield "ndim", valid[None]
    if arg.size:
        yield "short", valid[: need - 1]
    if arg.writable and not arg.copy:
        yield "read-only", _read_only(valid)
    if arg.below:  # C indexes by the values
        negative = valid.copy()
        negative.flat[0] = -1
        yield "negative", negative


_ARGS = [
    (entry, arg)
    for entry, row in [
        *_native._SPEC.items(), ("repro_score_batch", _native._NODE), (_GRID, _native._GRID_NODE),
    ]
    for arg in row
    if isinstance(arg, _native.Arg)
]


class _Trap:
    """A ``lib`` stand-in: reaching any C entry fails the test."""

    def __getattr__(self, name):
        def entered(*args):
            raise AssertionError(f"C entry {name} reached")

        return entered


@needs_native
@pytest.mark.parametrize(
    "entry, arg", _ARGS, ids=[f"{entry}-{arg.key}" for entry, arg in _ARGS]
)
def test_spec_refuses_every_bad_buffer_before_c(entry, arg, monkeypatch):
    kernels = _native.load()
    method, kwargs = _valid_call(entry)
    envs = []  # the valid call's sizes, as its checks left them

    def recording(check):
        return lambda **names: envs.append(check(**names)) or envs[-1]

    for name, check in _native._CHECKS.items():
        monkeypatch.setitem(_native._CHECKS, name, recording(check))
    for name in ("_NODE_CHECK", "_GRID_NODE_CHECK"):
        monkeypatch.setattr(_native, name, recording(getattr(_native, name)))
    monkeypatch.setattr(_native.NativeKernels, "_call", lambda self, name, env, *args: 0)
    getattr(kernels, method)(**kwargs)
    monkeypatch.undo()
    env = next(env for env in reversed(envs) if arg.key in env)
    need = eval(arg.size, {"np": np}, env) if arg.size else 0
    trapped = _native.NativeKernels(kernels._ffi, _Trap(), kernels.provider)
    name = arg.name or arg.key.replace("_", " ")
    valid = _get(kwargs, arg.key)
    variants = list(_variants(arg, valid, need))
    assert variants
    for variant, bad in variants:
        with pytest.raises(ValueError) as refusal:
            getattr(trapped, method)(**_set(kwargs, arg.key, bad))
        assert str(refusal.value).startswith(f"{name} must"), (variant, str(refusal.value))


def _nudged(arr, index=0):
    arr[index] = np.nextafter(arr[index], np.inf)


def _doctors(kernels):
    """Per certification row, the entry's wrapper with one output element
    moved one ulp."""

    def uniforms(*args):
        out = kernels.uniforms(*args)
        if out.size:
            _nudged(out)
        return out

    def score_batch(*args):
        out = kernels.score_batch(*args)
        _nudged(out[0])
        return out

    def obs_sweep(*args):
        out = kernels.obs_sweep(*args)
        _nudged(args[4])  # lm
        return out

    def var_sweep(**pack):
        origin, sizes, moves = kernels.var_sweep(**pack)
        slot, k0 = int(origin[0]), len(pack["obs_labels"])
        _nudged(pack["lm"], pack["offsets"][slot] if slot < k0 else pack["n_blocks"] + slot - k0)
        return origin, sizes, moves

    return {
        "draws": {"uniforms": uniforms},
        "score_batch": {"score_batch": score_batch},
        "obs sweep": {"obs_sweep": obs_sweep},
        "var sweep": {"var_sweep": var_sweep},
    }


@needs_native
@pytest.mark.parametrize(
    "row", _native._CERTIFICATION, ids=[row.name for row in _native._CERTIFICATION]
)
def test_an_entry_one_ulp_off_fails_certification_by_name(row):
    kernels = _native.load()

    class Doctored:
        def __getattr__(self, name):
            return getattr(kernels, name)

    doctored = Doctored()
    vars(doctored).update(_doctors(kernels)[row.name])
    assert _native._certify(kernels) is None
    mismatch = _native._certify(doctored)
    assert mismatch is not None and mismatch.startswith(f"{row.name} mismatch"), mismatch


@needs_native
@pytest.mark.parametrize("entry", ["repro_score_batch", _GRID])
def test_a_span_is_refused_where_the_batch_kind_does_not_take_one(entry):
    """A chain batch's node needs the span of its draws and a grid batch's
    node draws nothing: each given the other kind's ``span`` is refused,
    by name, before C."""
    kernels = _native.load()
    _method, kwargs = _valid_call(entry)
    swapped = _valid_call("repro_score_batch" if entry == _GRID else _GRID)[1]["nodes"]
    trapped = _native.NativeKernels(kernels._ffi, _Trap(), kernels.provider)
    refusal = "span must be None in a grid batch" if entry == _GRID else (
        "span must be a DrawSpan, got NoneType"
    )
    with pytest.raises(ValueError, match=refusal):
        trapped.score_batch(**{**kwargs, "nodes": [kwargs["nodes"][0], *swapped]})


@needs_native
def test_a_grid_batch_hands_c_no_span_and_no_steps(monkeypatch):
    """A grid batch reaches C with every node's generator, key and offset
    0 and its ``steps`` NULL, whatever ``want_steps`` says; the real call
    answers no steps and a beta index per candidate."""
    kernels = _native.load()
    kwargs = _valid_call(_GRID)[1]
    reached = []

    def call(self, entry, env, *args):
        reached.append([
            (c.gen, c.key, c.offset, c.steps == self._ffi.NULL) for c in args[6]
        ] + [args[-2]])

    with monkeypatch.context() as patched:
        patched.setattr(_native.NativeKernels, "_call", call)
        kernels.score_batch(**kwargs, want_steps=True)
    assert reached == [[(0, 0, 0, True), True]]
    best_score, steps, best_idx, bounds, *_rest = kernels.score_batch(**kwargs)
    assert steps is None and best_score.shape == best_idx.shape == (bounds[-1],)
    assert 0 <= best_idx.min() <= best_idx.max() < kwargs["beta_grid"].size


@needs_native
def test_a_batch_without_steps_hands_c_a_null_steps(monkeypatch):
    """``want_steps=False`` passes the spec and reaches C with every node's
    ``steps`` NULL (C counts in its own scratch) and its scores set; the
    real call then answers no steps and the same scores."""
    kernels = _native.load()
    kwargs = _valid_call("repro_score_batch")[1]
    reached = []

    def call(self, entry, env, *args):
        reached.append([
            (c.steps == self._ffi.NULL, c.best_score == self._ffi.NULL) for c in args[6]
        ])

    with monkeypatch.context() as patched:
        patched.setattr(_native.NativeKernels, "_call", call)
        kernels.score_batch(**kwargs, want_steps=False)
    assert reached == [[(True, False)]]
    best_score, steps, *_rest = kernels.score_batch(**kwargs, want_steps=False)
    assert steps is None
    assert best_score.tobytes() == kernels.score_batch(**kwargs)[0].tobytes()


#: how many entries ``log_marginal_core`` (``_build.py``) scores at a time
_LOG_MARGINAL_BLOCK = 512


@needs_native
def test_a_var_sweep_wrong_past_the_first_block_fails_the_wide_probe():
    """The variable-sweep entry with one marginal an ulp off whenever its
    state holds more blocks than ``log_marginal_core`` scores at a time:
    certification fails at the probe that stacks that many, by name."""
    kernels = _native.load()
    nudging = _doctors(kernels)["var sweep"]["var_sweep"]

    class Doctored:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def var_sweep(self, **pack):
            if pack["n_blocks"] > _LOG_MARGINAL_BLOCK:
                return nudging(**pack)
            return kernels.var_sweep(**pack)

    with np.errstate(all="ignore"):  # one probe holds an inf
        (wide,) = [
            label for label, case in _native._var_cases()
            if sum(c.obs.n_clusters for c in case[1].clusters) > _LOG_MARGINAL_BLOCK
        ]
    assert _native._certify(Doctored()) == f"var sweep mismatch at {wide}"
