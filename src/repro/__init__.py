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
        parallel=ParallelConfig(n_workers=4, topology="auto"),
    )
    result = LemonTreeLearner(config).learn(dataset.matrix, seed=1)
    print(result.network)

``ParallelConfig`` gathers every execution-backend knob (workers,
schedule, checkpoint directory, machine topology, shard nodes); it is
embedded in both ``LearnerConfig`` and ``GenomicaConfig`` as
``config.parallel``.  Worker placement and chunk sizing follow the probed
machine topology (``MachineTopology``) but can never change the learned
network — every backend is bit-identical to the one-worker run.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

from repro.core import (
    LearnerConfig,
    LearnResult,
    LemonTreeLearner,
    ParallelConfig,
    ReferenceLearner,
    network_from_json,
    network_to_json,
    network_to_xml,
)
from repro.data import (
    make_module_dataset,
    read_expression_tsv,
    thaliana_like,
    write_expression_tsv,
    yeast_like,
)
from repro.analysis import make_acyclic, module_recovery_score, parent_recovery
from repro.datatypes import ExpressionMatrix, Module, ModuleNetwork, TaskTimes
from repro.genomica import GenomicaConfig, GenomicaLearner
from repro.inference import (
    fit_network,
    holdout_log_likelihood,
    train_test_split_obs,
)
from repro.parallel import (
    MachineModel,
    MachineTopology,
    ParallelLearner,
    WorkTrace,
    project_time,
)
from repro.validation import SCENARIOS, run_matrix, run_scenario

__version__ = "1.0.0"

__all__ = [
    "LearnerConfig",
    "ParallelConfig",
    "LemonTreeLearner",
    "ReferenceLearner",
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
