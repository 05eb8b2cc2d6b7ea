"""The native boundary's three tables (``repro._native``).

* **completeness** — every entry ``_build.CDEF`` declares has exactly one
  argument spec row and at least one certification row, and no row names
  an entry it does not declare;
* **the spec table** — every array argument of every row, passed with the
  wrong dtype, the wrong number of dimensions, not C-contiguous, shorter
  than its row allows, read-only where C writes it or holding a negative
  index where C indexes by its values, is refused with a ``ValueError``
  that names it, before any C entry is reached — and every span, handed
  over as an array or covering one draw too few;
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


def _valid_call(entry):
    """A call of the ``NativeKernels`` method behind ``entry`` that passes
    the spec table: ``(method name, keyword arguments)``."""
    rng = np.random.default_rng(7)
    if entry == "repro_eval_chunk":
        values = rng.normal(size=(3, 4))
        return "eval_chunk", dict(
            group_value=rng.normal(size=5), group_row=rng.integers(0, 3, size=5),
            values=values, sign=np.ones(4), beta=1.0, quantum=1e-9, out=np.zeros(5),
        )
    if entry == "repro_score_batch":
        n_parents, n_u, per_item = 2, 6, 5
        n_items = n_parents * n_u
        node = ChainNode(
            np.arange(n_u), np.where(np.arange(n_u) % 2, 1.0, -1.0),
            IndexedStream(make_stream(1, "u"), per_item).items_span(0, n_items),
        )
        return "score_batch", dict(
            uvalues=rng.normal(size=(n_parents, n_u)),
            urow=np.tile(np.arange(n_u), (n_parents, 1)), beta_grid=np.arange(1.0, 5.0),
            nodes=[node], max_steps=2, stop_repeats=1, quantum=1e-9, chunk_elements=64,
            share=True,
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
    for entry, row in [*_native._SPEC.items(), ("repro_score_batch", _native._NODE)]
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
    monkeypatch.setattr(_native, "_NODE_CHECK", recording(_native._NODE_CHECK))
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

    def eval_chunk(*args):
        kernels.eval_chunk(*args)
        _nudged(args[-1])

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
        "eval_chunk": {"eval_chunk": eval_chunk},
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
def test_a_group_row_outside_the_values_is_refused():
    """A row index C would read past the values with: ``group_row`` 3 of
    3 rows, refused before C."""
    kernels = _native.load()
    kwargs = _valid_call("repro_eval_chunk")[1]
    trapped = _native.NativeKernels(kernels._ffi, _Trap(), kernels.provider)
    with pytest.raises(ValueError, match="group row must name a row"):
        trapped.eval_chunk(**{**kwargs, "group_row": np.array([0, 1, 2, 3, 0])})


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
