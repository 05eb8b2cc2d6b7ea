"""List every ``def`` / ``class`` under ``src/`` that nothing in ``src/``
references, and fail on any that is not on the allowlist below.

A definition counts as referenced when its name appears anywhere in
``src/`` as a loaded name, an attribute, an imported name or an
identifier-shaped string constant (``__all__`` entries, ``getattr``
names), other than at its own definition.  Comments and docstrings do not
count.  The scan is by name, not by binding: a method named like any
other referenced attribute counts as referenced.  Dunder methods are
skipped.  An allowlist entry that is referenced again, or no longer
defined, also fails, so the list stays true.

Usage: ``python tools/check_unreferenced.py [src_dir]`` (exit 1 on a
finding).
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

#: definitions kept although nothing in ``src/`` calls them, with the
#: caller outside ``src/`` that keeps each (``module:qualified.name``)
ALLOWED = {
    "repro.bench.reporting:load_results": "reads back save_results; tests/test_bench_utils.py",
    "repro.bench.runtime_model:FullScaleEstimate.estimated_hours": "report field; tests/test_bench_utils.py",
    "repro.bench.runtime_model:FullScaleEstimate.estimated_days": "benchmarks/bench_estimates.py, bench_fig6, bench_table2",
    "repro.core.config:LearnerConfig.with_updates": "public API; benchmarks and examples/parallel_consistency.py",
    "repro.core.config:parents_from_names": "public API; examples/lemon_tree_workflow.py",
    "repro.datatypes:ExpressionMatrix.subsample": "benchmarks/conftest.py and bench_table1_sequential.py",
    "repro.datatypes:ExpressionMatrix.standardized": "public API; tests/test_datatypes.py",
    "repro.datatypes:TaskTimes.fractions": "public API; tests/test_learner.py",
    "repro.inference.cpd:LeafPredictive.variance": "public API; tests/test_inference.py",
    "repro.inference.cpd:FittedNetwork.per_condition_log_likelihood": "public API; tests/test_inference.py",
    "repro.parallel.scheduler:flat_schedule": "benchmarks/bench_ablation_partitioning.py",
    "repro.parallel.scheduler:grouped_schedule": "benchmarks/bench_ablation_partitioning.py",
    "repro.parallel.scheduler:lpt_schedule": "benchmarks/bench_ablation_partitioning.py",
    "repro.parallel.scheduler:chunked_lpt_schedule": "benchmarks/bench_ablation_partitioning.py",
    "repro.parallel.topology:resolve_topology": "benchmarks/e2e/workload.py",
    "repro.parallel.trace:WorkTrace.total_steals": "benchmarks/e2e/probes.py (ROADMAP item 1(c))",
    "repro.parallel.trace:WorkTrace.total_node_steals": "benchmarks/e2e/probes.py (ROADMAP item 1(c))",
    "repro.parallel.trace:WorkTrace.phase_units": "benchmarks/e2e/probes.py",
    "repro.parallel.trace:ProjectedTime.breakdown": "public API; tests/test_trace.py",
    "repro.parallel.trace:save_trace": "public API; benchmarks/conftest.py",
    "repro.parallel.trace:scaling_curve": "public API; examples/strong_scaling_study.py",
    "repro.rng.philox:KeyedStream.jump_to": "stream API; tests/test_rng_philox.py, test_rng_mrg.py",
}


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _Definitions(ast.NodeVisitor):
    def __init__(self, module: str, path: Path) -> None:
        self.module, self.path = module, path
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []  # (name, key, line)

    def _define(self, node) -> None:
        self.scope.append(node.name)
        if not (node.name.startswith("__") and node.name.endswith("__")):
            key = f"{self.module}:{'.'.join(self.scope)}"
            self.found.append((node.name, key, node.lineno))
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define


def _references(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
    return names


def scan(root: Path) -> list[tuple[str, str, int]]:
    """Every unreferenced definition under ``root``: ``(key, path, line)``."""
    definitions = []
    references: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visitor = _Definitions(_module_name(path, root), path)
        visitor.visit(tree)
        definitions.extend((name, key, path, line) for name, key, line in visitor.found)
        references.update(_references(tree))
    return [
        (key, str(path), line)
        for name, key, path, line in definitions
        if references[name] == 0
    ]


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    unreferenced = scan(root)
    found = {key for key, _path, _line in unreferenced}
    status = 0
    for key, path, line in unreferenced:
        if key not in ALLOWED:
            print(f"{path}:{line}: {key} is referenced nowhere in {root}/", file=sys.stderr)
            status = 1
    for key in sorted(set(ALLOWED) - found):
        print(f"allowlist entry {key} is referenced or gone: drop it", file=sys.stderr)
        status = 1
    if status == 0:
        print(f"{len(found)} unreferenced definitions, all on the allowlist")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
