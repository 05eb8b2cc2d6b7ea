"""What importing the package costs the interpreters that have to boot.

Every spawned pool worker and shard node (the service's lease, platforms
without fork), the CLI and every benchmark child import ``repro.*`` from
cold, so the package root re-exports lazily and nothing on the executor
tier's import path may pull in the graph library, the CLI, the service or
the extensions.
"""

import subprocess
import sys
from pathlib import Path

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
    import pytest

    import repro

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
