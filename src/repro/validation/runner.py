"""The differential-testing harness: scenarios x backend combinations.

For each scenario the runner generates the matrix once, learns the
reference network with the sequential NumPy configuration, then replays
the identical input through every backend combination — worker counts x
scoring-kernel backends x RNG backends — and compares network
fingerprints.  Within one RNG backend every combination must be
*bit-identical* to the reference (the paper's output-consistency
property); the two RNG backends are independent oracles with their own
reference fingerprints.  Ground-truth recovery metrics are computed from
the reference network and judged against the scenario's tolerance band.

Crashes are first-class results: a combination that raises is recorded
with its error and fails the scenario instead of aborting the matrix, so
one degenerate regime cannot hide another's divergence.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, replace

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.datatypes import ExpressionMatrix
from repro.validation.metrics import network_fingerprint, recovery_metrics
from repro.validation.report import ComboResult, MatrixReport, ScenarioResult
from repro.validation.scenarios import Scenario, select_scenarios

#: RNG backends are independent oracles — both grids always run
RNG_BACKENDS = ("philox", "mrg")


@dataclass(frozen=True)
class BackendCombo:
    """One cell of the backend grid."""

    n_workers: int
    kernel_backend: str
    rng_backend: str
    #: shard nodes (>1 routes through the multi-node tier)
    n_nodes: int = 1


def _native_available() -> bool:
    from repro.scoring.kernel import resolve_kernel_backend

    return resolve_kernel_backend("auto")[0] == "native"


def backend_grid(
    smoke: bool = False,
    worker_counts: tuple[int, ...] | None = None,
    node_counts: tuple[int, ...] | None = None,
) -> list[BackendCombo]:
    """The backend combinations to differentiate against the reference.

    Smoke mode shrinks only the grid (fewer worker counts); it never
    weakens the bit-identity assertion on the combinations that do run.
    The native kernel joins the grid whenever the extension certifies on
    this machine — silently absent otherwise, exactly like
    ``kernel_backend="auto"``.

    ``node_counts`` adds a shard axis: each count > 1 runs the scenarios
    on the multi-node tier (:mod:`repro.parallel.sharding`) with one
    worker per node, for both RNG backends, asserting the same
    bit-identity against the sequential reference.
    """
    if worker_counts is None:
        worker_counts = (1, 2) if smoke else (1, 2, 4)
    kernels = ["numpy"]
    if _native_available():
        kernels.append("native")
    grid = [
        BackendCombo(w, kernel, rng)
        for rng in RNG_BACKENDS
        for kernel in kernels
        for w in worker_counts
        # w=1/numpy *is* the reference; re-running it would differentiate
        # nothing, but w=1/native is a real cell (kernel swap, no pool).
        if not (w == 1 and kernel == "numpy")
    ]
    if node_counts:
        grid.extend(
            BackendCombo(1, "numpy", rng, n_nodes=n)
            for rng in RNG_BACKENDS
            for n in node_counts
            # a 1-node shard tier differentiates nothing beyond w=1/numpy
            if n > 1
        )
    return grid


def _base_config(spec: Scenario) -> LearnerConfig:
    """The learner configuration a scenario runs under.

    Two GaneSH runs so Task 1 genuinely fans out on the executor; short
    sampling chains keep the full grid tractable.  Scenario overrides win.
    """
    base = dict(n_ganesh_runs=2, max_sampling_steps=4)
    base.update(spec.learner_overrides)
    return LearnerConfig(**base)


def _combo_config(
    base: LearnerConfig, combo: BackendCombo
) -> LearnerConfig:
    return replace(
        base,
        rng_backend=combo.rng_backend,
        parallel=ParallelConfig(
            n_workers=combo.n_workers,
            kernel_backend=combo.kernel_backend,
            n_nodes=combo.n_nodes,
        ),
    )


def _learn_fingerprint(
    matrix: ExpressionMatrix, config: LearnerConfig, seed: int
):
    network = LemonTreeLearner(config).learn(matrix, seed=seed).network
    return network, network_fingerprint(network)


def run_scenario(
    spec: Scenario,
    seed: int = 0,
    smoke: bool = False,
    combos: list[BackendCombo] | None = None,
) -> ScenarioResult:
    """Run one scenario through the full backend grid."""
    if combos is None:
        combos = backend_grid(smoke)
    dataset = spec.generate(seed, smoke=smoke)
    matrix = dataset.matrix
    if matrix.has_missing:
        # Missing data is resolved once, up front; every backend sees the
        # same imputed matrix (learning on NaN is rejected by design).
        matrix = matrix.impute_missing()
    base = _base_config(spec)

    result = ScenarioResult(
        name=spec.name,
        description=spec.description,
        shape=matrix.shape,
        seed=seed,
    )
    for rng_backend in RNG_BACKENDS:
        reference_config = _combo_config(
            base, BackendCombo(1, "numpy", rng_backend)
        )
        network, fingerprint = _learn_fingerprint(matrix, reference_config, seed)
        result.reference[rng_backend] = fingerprint
        if rng_backend == RNG_BACKENDS[0] and spec.score_truth:
            result.metrics = recovery_metrics(network, dataset.truth)
            result.band_violations = spec.tolerance.violations(result.metrics)

    for combo in combos:
        cell = ComboResult(
            n_workers=combo.n_workers,
            kernel_backend=combo.kernel_backend,
            rng_backend=combo.rng_backend,
            n_nodes=combo.n_nodes,
        )
        t0 = time.perf_counter()
        try:
            _, cell.fingerprint = _learn_fingerprint(
                matrix, _combo_config(base, combo), seed
            )
            cell.identical = (
                cell.fingerprint == result.reference[combo.rng_backend]
            )
        except Exception as err:  # a crash is a result, not an abort
            cell.error = "".join(
                traceback.format_exception_only(type(err), err)
            ).strip()
        cell.seconds = time.perf_counter() - t0
        result.combos.append(cell)
    return result


def run_matrix(
    scenario_names: list[str] | None = None,
    seed: int = 0,
    smoke: bool = False,
    worker_counts: tuple[int, ...] | None = None,
    node_counts: tuple[int, ...] | None = None,
    progress=None,
) -> MatrixReport:
    """Run the scenario matrix: every selected scenario x the backend grid.

    ``progress`` is an optional callable receiving each completed
    :class:`ScenarioResult` (the CLI uses it to stream the table).
    """
    combos = backend_grid(smoke, worker_counts, node_counts)
    scenarios = select_scenarios(scenario_names, smoke=smoke)
    report = MatrixReport(
        smoke=smoke,
        seed=seed,
        grid={
            "worker_counts": sorted({c.n_workers for c in combos} | {1}),
            "kernel_backends": sorted({c.kernel_backend for c in combos}),
            "rng_backends": list(RNG_BACKENDS),
            "native_available": _native_available(),
            "node_counts": sorted({c.n_nodes for c in combos} | {1}),
        },
    )
    for spec in scenarios:
        result = run_scenario(spec, seed=seed, smoke=smoke, combos=combos)
        report.scenarios.append(result)
        if progress is not None:
            progress(result)
    return report
