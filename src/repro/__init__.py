"""repro — Parallel Construction of Module Networks (SC '21 reproduction).

A Python reproduction of Srivastava, Chockalingam, Aluru & Aluru,
"Parallel Construction of Module Networks", SC '21: the Lemon-Tree
module-network learning algorithm (GaneSH co-clustering, consensus
clustering, regression-tree CPD learning) together with its
distributed-memory parallelization, on a simulated MPI machine with a
calibrated communication model.

Quickstart::

    from repro import LearnerConfig, LemonTreeLearner, ParallelConfig, yeast_like

    dataset = yeast_like(scale=1 / 64)
    config = LearnerConfig(
        parallel=ParallelConfig(n_workers=4),
    )
    result = LemonTreeLearner(config).learn(dataset.matrix, seed=1)
    print(result.network)

``ParallelConfig`` gathers every execution-backend knob (workers,
schedule, kernel backend, shard nodes); it is
embedded in both ``LearnerConfig`` and ``GenomicaConfig`` as
``config.parallel``.  Every backend is bit-identical to the one-worker
run.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

import importlib

#: public name -> the submodule that defines it.  Resolved on first access
#: (module ``__getattr__``, PEP 562) so that importing any ``repro.*``
#: submodule — every spawned pool worker and shard node does — pays for
#: what it uses, not for networkx, the CLI stack or the extensions.
_EXPORTS = {
    "LearnerConfig": "repro.core.config",
    "ParallelConfig": "repro.core.config",
    "LemonTreeLearner": "repro.core.learner",
    "LearnResult": "repro.core.learner",
    "network_from_json": "repro.core.output",
    "network_to_json": "repro.core.output",
    "network_to_xml": "repro.core.output",
    "make_module_dataset": "repro.data.synthetic",
    "yeast_like": "repro.data.synthetic",
    "thaliana_like": "repro.data.synthetic",
    "read_expression_tsv": "repro.data.io",
    "write_expression_tsv": "repro.data.io",
    "make_acyclic": "repro.analysis.acyclicity",
    "module_recovery_score": "repro.analysis.recovery",
    "parent_recovery": "repro.analysis.recovery",
    "ExpressionMatrix": "repro.datatypes",
    "Module": "repro.datatypes",
    "ModuleNetwork": "repro.datatypes",
    "TaskTimes": "repro.datatypes",
    "GenomicaConfig": "repro.genomica",
    "GenomicaLearner": "repro.genomica",
    "fit_network": "repro.inference",
    "holdout_log_likelihood": "repro.inference",
    "train_test_split_obs": "repro.inference",
    "MachineModel": "repro.parallel.costmodel",
    "MachineTopology": "repro.parallel.topology",
    "ParallelLearner": "repro.parallel.engine",
    "WorkTrace": "repro.parallel.trace",
    "project_time": "repro.parallel.trace",
    "SCENARIOS": "repro.validation",
    "run_matrix": "repro.validation",
    "run_scenario": "repro.validation",
}

__version__ = "1.0.0"

__all__ = [
    "LearnerConfig",
    "ParallelConfig",
    "LemonTreeLearner",
    "LearnResult",
    "ExpressionMatrix",
    "Module",
    "ModuleNetwork",
    "TaskTimes",
    "MachineModel",
    "MachineTopology",
    "ParallelLearner",
    "WorkTrace",
    "project_time",
    "make_module_dataset",
    "yeast_like",
    "thaliana_like",
    "read_expression_tsv",
    "write_expression_tsv",
    "network_to_json",
    "network_from_json",
    "network_to_xml",
    "SCENARIOS",
    "run_matrix",
    "run_scenario",
    "GenomicaLearner",
    "GenomicaConfig",
    "fit_network",
    "holdout_log_likelihood",
    "train_test_split_obs",
    "make_acyclic",
    "module_recovery_score",
    "parent_recovery",
    "__version__",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups bypass this hook
    return value
