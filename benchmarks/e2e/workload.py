"""One workload's set-up, timed closed loop and output checks.

Runs inside the per-workload interpreter (``child.py``).  ``repro`` is
imported inside the functions so that set-up can time the imports.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from calibrate import slowdown, summary
from spec import (
    COMMON_LEARNER,
    LEARNER_SEED_OFFSET,
    MIN_ITERATIONS,
    NOISE_SIGMA,
    STRUCTURE_SEED,
    Size,
    Workload,
)


def learner_config(workload: Workload, size: Size, sequential: bool = False):
    """The workload's ``LearnerConfig``; ``sequential`` drops it to one
    process (the reference every parallel tier must match bit for bit)."""
    from repro.core.config import LearnerConfig, ParallelConfig

    parallel = ParallelConfig(
        n_workers=1 if sequential else workload.n_workers,
        n_nodes=1 if sequential else workload.n_nodes,
        node_backend="socket",
        kernel_backend="auto",
    )
    if workload.family == "yeast":
        return LearnerConfig(
            **COMMON_LEARNER, init_var_clusters=1 / 16, parallel=parallel
        )
    return LearnerConfig(
        **COMMON_LEARNER,
        n_ganesh_runs=size.ganesh_runs,
        n_update_steps=size.ganesh_updates,
        init_var_clusters=1 / 8,
        candidate_parents=tuple(range(8)),
        parallel=parallel,
    )


def candidate_splits(network, n_parents: int) -> int:
    """Candidate splits Task 3 scored for ``network``: every candidate
    parent at every observation of every internal tree node."""
    return n_parents * sum(
        int(node.observations.size)
        for module in network.modules
        for tree in module.trees
        for node in tree.internal_nodes()
    )


def cpu_seconds() -> float:
    """User+sys CPU of this process and the children it has reaped."""
    return sum(os.times()[:4])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


@dataclass
class Context:
    """What set-up leaves for the timed loop and the traced probes."""

    workload: Workload
    size: Size
    matrix: object
    #: the generator's ground truth, for the recovery metrics
    truth: object
    config: object
    learner_seed: int
    setup: dict
    #: slowdown sampled when set-up ended (first bracket of iteration 1)
    slow_ready: float
    #: seconds of set-up's parts and the native loader's outcome
    parts: dict


def set_up(workload: Workload, size: Size, seed: int, t0: float, slow0: float) -> Context:
    """Interpreter start to first timed iteration, timed part by part."""
    parts = {}
    mark = time.perf_counter()
    from repro import _native
    from repro.core.learner import LemonTreeLearner
    from repro.data.synthetic import make_module_dataset
    from repro.datatypes import ExpressionMatrix

    parts["import_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    native = _native.availability()  # builds on first use, loads, certifies
    parts["native_load_s"] = time.perf_counter() - mark
    parts["native"] = native

    mark = time.perf_counter()
    shape = size.yeast if workload.family == "yeast" else size.ganesh
    structure = make_module_dataset(*shape, seed=STRUCTURE_SEED)
    noise = np.random.default_rng(seed).normal(0.0, NOISE_SIGMA, size=shape)
    matrix = ExpressionMatrix(
        structure.matrix.values + noise,
        structure.matrix.var_names,
        structure.matrix.obs_names,
    )
    parts["generate_s"] = time.perf_counter() - mark

    config = learner_config(workload, size)
    learner_seed = seed + LEARNER_SEED_OFFSET
    mark = time.perf_counter()
    tiny = make_module_dataset(24, 16, seed=STRUCTURE_SEED)
    LemonTreeLearner(config).learn(tiny.matrix, learner_seed)
    parts["warm_up_s"] = time.perf_counter() - mark

    raw = time.time() - t0
    slow_ready = slowdown()
    machine_slowdown = (slow0 + slow_ready) / 2
    setup = {
        "raw_s": raw,
        "slowdown": machine_slowdown,
        "value": raw / machine_slowdown,
    }
    return Context(
        workload, size, matrix, structure.truth, config, learner_seed, setup,
        slow_ready, parts,
    )


def timed_learn(config, matrix, seed, slow_before: float, trace=None):
    """One ``learn()`` bracketed by yardstick samples.

    Returns ``(result_or_None, row, slow_after)``; ``row`` holds the raw
    wall and CPU seconds, the slowdown around the call and the error.
    """
    from repro.core.learner import LemonTreeLearner

    result, error = None, None
    cpu0, start = cpu_seconds(), time.perf_counter()
    try:
        result = LemonTreeLearner(config).learn(matrix, seed, trace=trace)
    except Exception as exc:  # a failed iteration is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    slow_after = slowdown()
    row = {
        "wall_raw_s": wall,
        "cpu_raw_s": cpu,
        "slowdown": (slow_before + slow_after) / 2,
        "error": error,
    }
    return result, row, slow_after


def check_output(ctx: Context, network, fingerprint: str) -> list[str]:
    """Correctness of the workload's (iteration-stable) output."""
    from repro.core.output import network_from_json, network_to_json
    from repro.validation.metrics import network_fingerprint

    problems = []
    labels = network.assignment_labels()
    if network.n_modules < 1 or (labels < 0).any():
        problems.append("network leaves variables unassigned")
    if network_from_json(network_to_json(network)) != network:
        problems.append("network does not survive its JSON round trip")
    if ctx.workload.n_workers > 1 or ctx.workload.n_nodes > 1:
        # The paper's consistency property: any process count, same network.
        from repro.core.learner import LemonTreeLearner

        reference = LemonTreeLearner(
            learner_config(ctx.workload, ctx.size, sequential=True)
        ).learn(ctx.matrix, ctx.learner_seed)
        if network_fingerprint(reference.network) != fingerprint:
            problems.append("network differs from the sequential learner's")
    return problems


def run_timed(ctx: Context, seconds: float, iterations: int | None) -> dict:
    """The closed loop: one client, one ``learn()`` at a time."""
    from repro.validation.metrics import network_fingerprint

    matrix = ctx.matrix
    rows: list[dict] = []
    network, fingerprint = None, None
    slow = ctx.slow_ready
    loop_start = time.perf_counter()
    while True:
        result, row, slow = timed_learn(ctx.config, matrix, ctx.learner_seed, slow)
        if result is not None:
            row["fingerprint"] = network_fingerprint(result.network)
            if fingerprint is None:
                network, fingerprint = result.network, row["fingerprint"]
            elif row["fingerprint"] != fingerprint:
                row["error"] = "fingerprint differs from the first iteration's"
        rows.append(row)
        if iterations is not None:
            if len(rows) >= iterations:
                break
        elif len(rows) >= MIN_ITERATIONS:
            elapsed = time.perf_counter() - loop_start
            typical = statistics.median(r["wall_raw_s"] for r in rows)
            if elapsed + typical > seconds:
                break

    rss = peak_rss_mb()  # before the in-process reference learn below
    problems = check_output(ctx, network, fingerprint) if network else []
    failed = sum(1 for r in rows if r["error"]) if not problems else len(rows)

    n_parents = len(ctx.config.resolve_candidate_parents(matrix.n_vars))
    splits = candidate_splits(network, n_parents) if network else 0
    if ctx.workload.family == "yeast" and splits:
        work_factor = ctx.size.yeast_ref_splits / splits
    else:
        work_factor = 1.0  # Task 1 work is fixed by the shape and G, U
    good = [r for r in rows if not r["error"]]
    end_to_end = {
        "wall_s": summary(
            r["wall_raw_s"] / r["slowdown"] * work_factor for r in good
        ),
        "cpu_s": summary(
            r["cpu_raw_s"] / r["slowdown"] * work_factor for r in good
        ),
        "peak_rss_mb": summary([rss]),
        "setup_s": summary([ctx.setup["value"]]),
    }
    raw = {
        "wall_raw_s": summary(r["wall_raw_s"] for r in good),
        "cpu_raw_s": summary(r["cpu_raw_s"] for r in good),
        "slowdown": summary(r["slowdown"] for r in rows),
    }
    return {
        "attempted": len(rows),
        "failed": failed,
        "failed_frac": failed / len(rows),
        "errors": [r["error"] for r in rows if r["error"]] + problems,
        "fingerprint": fingerprint,
        "candidate_splits": splits,
        "work_factor": work_factor,
        "end_to_end": end_to_end,
        "raw": raw,
        "iterations": rows,
    }


def machine_block(load_start: tuple) -> dict:
    """Where the numbers were taken; compare.py refuses to compare runs
    whose ``nproc`` or resolved kernel backend differ."""
    import platform

    import numpy
    import scipy

    from repro import _native
    from repro.parallel.topology import available_cpus, resolve_topology
    from repro.scoring.kernel import active_kernel_backend

    topology = resolve_topology("auto")
    native = _native.availability()
    return {
        "nproc": os.cpu_count(),
        "affinity": list(available_cpus()),
        "numa_domains": [list(domain) for domain in topology.numa_domains],
        "topology_source": topology.source,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": active_kernel_backend(),
        "native_status": native["status"],
        "native_provider": native["provider"],
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }
