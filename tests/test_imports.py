"""What importing the package costs the interpreters that have to boot.

Every spawned pool worker and shard node (the service's lease, platforms
without fork), the CLI and every benchmark child import ``repro.*`` from
cold, so the package root re-exports lazily and nothing on the executor
tier's import path may pull in the graph library, the CLI, the service or
the extensions.  A cold ``learn()`` with a warm native cache loads neither
SciPy nor cffi's C parser, and runs where SciPy cannot be imported at all.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = """
import sys
import repro.parallel.sharding

heavy = ("networkx", "repro.cli", "repro.service", "repro.genomica")
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, loaded

import repro

for name in repro.__all__:
    assert getattr(repro, name) is not None, name
assert "networkx" not in sys.modules  # resolving a name does not use it
"""


def test_node_import_path_is_lean_and_every_export_resolves():
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, timeout=120,
        cwd=Path(__file__).resolve().parents[1],
    )
    assert done.returncode == 0, done.stderr


def test_unknown_attribute_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


_COLD_LEARN = """
import sys
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import make_module_dataset

config = LearnerConfig(parallel=ParallelConfig(kernel_backend="{backend}"))
LemonTreeLearner(config).learn(make_module_dataset(24, 16, seed=7).matrix, 3)
from repro import _native
assert _native.availability()["status"] == "native", _native.availability()
unused = [m for m, module in sys.modules.items() if module is not None  # None: blocked
          and (m.split(".")[0] in ("scipy", "pycparser") or m in ("cffi.cparser", "numpy.ma"))]
assert not unused, unused
"""

_SOURCE_KEY = """
import sys
from repro._native import _build, _source_key
assert len(_source_key()) == 16
assert isinstance(_build.CDEF, str) and isinstance(_build.CSOURCE, str)
unused = [m for m in sys.modules if m.startswith("pycparser") or m == "cffi.cparser"]
assert not unused, unused
"""


def _run_cold(script, **env):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, cwd=root,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def _warm_native_cache():
    from repro import _native

    if _native.availability()["status"] != "native":
        pytest.skip(f"no native kernel here: {_native.availability()['detail']}")


def test_cold_learn_loads_neither_scipy_nor_the_c_parser():
    """A cache hit loads the extension without cffi's parser, and nothing
    the runtime does (``gammaln`` included) needs SciPy or ``numpy.ma``
    (which a bare ``np.unique`` imports)."""
    _warm_native_cache()
    done = _run_cold(_COLD_LEARN.format(backend="auto"))
    assert done.returncode == 0, done.stderr


def test_cold_numpy_backend_learn_loads_no_numpy_ma():
    """The NumPy split scorer and the load-time certification oracle find
    their missing memo keys without importing ``numpy.ma`` either."""
    _warm_native_cache()
    done = _run_cold(_COLD_LEARN.format(backend="numpy"))
    assert done.returncode == 0, done.stderr


_POOL_LEARNS = """
import os
from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import make_module_dataset

certify = _native._certify

def counted(kernels):
    with open(os.environ["CERTIFY_LOG"], "a") as log:
        log.write(f"{os.getpid()}\\n")
    return certify(kernels)

_native._certify = counted
config = LearnerConfig(max_sampling_steps=5, parallel=ParallelConfig(n_workers=2))
for _ in range(2):
    LemonTreeLearner(config).learn(make_module_dataset(24, 16, seed=7).matrix, 3)
print(os.getpid())
"""


def test_pool_learns_certify_the_native_kernel_once_before_forking(tmp_path):
    """The process that opens a pool never scores, yet it resolves the
    job's kernel backend before its workers fork: two ``learn()`` calls on
    two workers certify the kernel once, in that process, and in no
    worker."""
    _warm_native_cache()
    log = tmp_path / "certified"
    done = _run_cold(_POOL_LEARNS, CERTIFY_LOG=str(log))
    assert done.returncode == 0, done.stderr
    assert log.read_text().split() == [done.stdout.split()[-1]]


def test_cold_learn_runs_without_scipy():
    """With every ``import scipy`` made to fail, a cold ``learn()`` still
    runs and certifies the native kernel."""
    _warm_native_cache()
    done = _run_cold(
        'import sys\nsys.modules["scipy"] = None\n' + _COLD_LEARN.format(backend="auto")
    )
    assert done.returncode == 0, done.stderr


def test_source_key_parses_nothing():
    done = _run_cold(_SOURCE_KEY)
    assert done.returncode == 0, done.stderr


def test_setup_entry_resolves_to_an_ffi():
    """``setup.py``'s ``cffi_modules`` entry, loaded the way cffi's
    setuptools hook loads it: a callable it is given is called, and must
    return the builder."""
    cffi = pytest.importorskip("cffi")
    from cffi.setuptools_ext import execfile

    root = Path(__file__).resolve().parents[1]
    entry = re.search(r'"([\w/]+\.py):(\w+)"', (root / "setup.py").read_text())
    scope = {"__name__": "__cffi__"}
    execfile(str(root / entry[1]), scope)
    ffi = scope[entry[2]]
    if not isinstance(ffi, cffi.FFI):
        ffi = ffi()
    assert isinstance(ffi, cffi.FFI)


@pytest.mark.slow
def test_build_on_demand_into_an_empty_cache(tmp_path):
    """A cache miss still compiles the recipe (and certifies it)."""
    _warm_native_cache()
    done = _run_cold(
        "from repro import _native; print(_native.availability()['status'])",
        REPRO_NATIVE_CACHE=str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["native"]
    assert any(tmp_path.rglob("_native_kernel*"))
