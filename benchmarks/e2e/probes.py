"""The traced run: per-layer numbers taken from outside ``src/``.

Spans are recorded here, around calls into each layer's public functions
(spans inside the program are a later issue).  For Task 3 that means
replaying the body of ``learn_single_module`` call by call with the same
named random streams; the replay's network must equal ``learn()``'s bit
for bit, which is asserted.  Seconds are divided by the machine slowdown
measured around the section they were taken in (``calibrate.py``); the
``spans`` list keeps raw clock readings.

A probe that fails records ``null`` plus the error string for each of its
metrics and never fails the run.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from calibrate import slowdown
from spec import MIN_ITERATIONS, PER_LAYER
from workload import Context, learner_config, timed_learn


class Spans:
    """In-memory span log: name, start, end, parent, workload id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows if r["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for r in self.rows if r["name"] == name)

    def self_time(self, span_id: int) -> float:
        """The span's duration minus what its child spans cover."""
        row = self.rows[span_id]
        children = sum(
            r["end"] - r["start"] for r in self.rows if r["parent"] == span_id
        )
        return row["end"] - row["start"] - children


@contextmanager
def section():
    """Bracket a measured section with yardstick samples; the yielded
    dict gets the section's ``slowdown`` on exit."""
    box = {"slowdown": None}
    before = slowdown()
    try:
        yield box
    finally:
        box["slowdown"] = (before + slowdown()) / 2


def run_probe(values: dict, errors: dict, prefixes: tuple, fn) -> None:
    """Run one layer's probe; on failure every metric under ``prefixes``
    becomes ``None`` with the error recorded, and the run goes on."""
    try:
        values.update(fn())
    except Exception as exc:  # a layer whose API moved must not fail the run
        message = f"{type(exc).__name__}: {exc}"
        for metric in PER_LAYER:
            if metric.name.startswith(prefixes):
                values[metric.name] = None
                errors[metric.name] = message


def replay(ctx: Context, spans: Spans):
    """Drive the pipeline task by task through the public API.

    Returns ``(network, chain_trace, obs_trace, n_candidate_splits)``.
    Mirrors ``repro.core.learner.learn_single_module`` statement for
    statement; the caller asserts the fingerprint.
    """
    from repro.core.learner import LemonTreeLearner
    from repro.datatypes import Module, ModuleNetwork
    from repro.ganesh.coclustering import SweepHooks, run_obs_only_ganesh
    from repro.parallel.trace import WorkTrace
    from repro.rng.streams import GibbsRandom, IndexedStream, make_stream
    from repro.scoring.split_score import SplitScorer
    from repro.trees.hierarchy import build_tree_structure
    from repro.trees.parents import accumulate_parent_scores
    from repro.trees.splits import score_node_splits, select_node_splits

    config = learner_config(ctx.workload, ctx.size, sequential=True)
    matrix, seed = ctx.matrix, ctx.learner_seed
    data = matrix.values
    learner = LemonTreeLearner(config)
    chain_trace, obs_trace = WorkTrace(), WorkTrace()
    obs_hooks = SweepHooks(
        record=lambda phase, costs, nc=2: obs_trace.record(phase, costs, nc)
    )
    parents = np.asarray(
        config.resolve_candidate_parents(matrix.n_vars), dtype=np.int64
    )
    scorer = SplitScorer(
        beta_grid=config.beta_grid,
        max_steps=config.max_sampling_steps,
        stop_repeats=config.sampling_stop_repeats,
    )
    n_splits = 0
    with spans.span("replay"):
        with spans.span("ganesh.chains"):
            samples = learner.sample_clusterings(matrix, seed, trace=chain_trace)
        with spans.span("consensus.cluster"):
            modules_members = learner.consensus(samples)
        modules = []
        with spans.span("core.task3"):
            for module_id, members in enumerate(modules_members):
                block = data[members]
                mrng = GibbsRandom(
                    make_stream(seed, "modules", module_id, backend=config.rng_backend)
                )
                istream = IndexedStream(
                    make_stream(seed, "splits", module_id, backend=config.rng_backend),
                    scorer.draws_per_item,
                )
                with spans.span("ganesh.obs_only"):
                    obs_samples = run_obs_only_ganesh(
                        block,
                        mrng,
                        n_update_steps=config.tree_update_steps,
                        burn_in=config.tree_burn_in,
                        prior=config.prior,
                        hooks=obs_hooks,
                    )
                trees = []
                for labels in obs_samples:
                    with spans.span("trees.build"):
                        trees.append(
                            build_tree_structure(
                                block, labels, module_id, config.prior
                            )
                        )
                module = Module(module_id=module_id, members=list(members), trees=trees)
                split_base = 0
                all_weighted, all_uniform = [], []
                for tree_index, tree in enumerate(trees):
                    for node in tree.internal_nodes():
                        with spans.span("trees.score_splits"):
                            scores = score_node_splits(
                                data, module_id, tree_index, node,
                                parents, scorer, istream, split_base,
                            )
                        split_base += scores.n_splits
                        with spans.span("trees.select_splits"):
                            weighted, uniform = select_node_splits(
                                data, scores, mrng, config.n_splits_per_node
                            )
                        node.weighted_splits = weighted
                        node.uniform_splits = uniform
                        all_weighted.extend(weighted)
                        all_uniform.extend(uniform)
                with spans.span("trees.parents"):
                    module.weighted_parents = accumulate_parent_scores(all_weighted)
                    module.uniform_parents = accumulate_parent_scores(all_uniform)
                modules.append(module)
                n_splits += split_base
        network = ModuleNetwork(modules, matrix.var_names, matrix.n_obs)
    return network, chain_trace, obs_trace, n_splits


def run_traced(ctx: Context, tmp: Path, iterations: int | None) -> dict:
    from repro.validation.metrics import network_fingerprint

    name = ctx.workload.name
    matrix, seed = ctx.matrix, ctx.learner_seed
    values: dict = {}
    errors: dict = {}
    spans = Spans(name)
    problems: list[str] = []
    # What later probes need from earlier ones.
    shared: dict = {}

    def core():
        from repro.parallel.trace import WorkTrace

        slow = ctx.slow_ready
        runs = []
        for _ in range(iterations or MIN_ITERATIONS):
            result, row, slow = timed_learn(ctx.config, matrix, seed, slow)
            if result is None:
                raise RuntimeError(row["error"])
            runs.append((result, row))
        trace = WorkTrace()
        traced, traced_row, _ = timed_learn(ctx.config, matrix, seed, slow, trace)
        if traced is None:
            raise RuntimeError(traced_row["error"])
        runs.append((traced, traced_row))
        untraced = statistics.median(
            row["wall_raw_s"] / row["slowdown"] for _res, row in runs[:-1]
        )
        shared.update(
            network=traced.network,
            fingerprint=network_fingerprint(traced.network),
            trace=trace,
            stats=traced.stats,
            untraced_wall=untraced,
        )
        if any(
            network_fingerprint(res.network) != shared["fingerprint"]
            for res, _row in runs
        ):
            problems.append("fingerprint differs between iterations")

        def task(attr):
            return statistics.median(
                getattr(res.task_times, attr) / row["slowdown"] for res, row in runs
            )

        return {
            "core.task1_s": task("ganesh"),
            "core.task2_s": task("consensus"),
            "core.task3_s": task("modules"),
            "core.n_modules": traced.stats["n_modules"],
            "core.n_internal_nodes": traced.stats["n_internal_nodes"],
            "trace.overhead_frac": (
                traced_row["wall_raw_s"] / traced_row["slowdown"] / untraced - 1.0
            ),
        }

    def layers():
        with section() as box:
            network, chain_trace, obs_trace, n_splits = replay(ctx, spans)
        slow = box["slowdown"]
        if network_fingerprint(network) != shared.get("fingerprint"):
            problems.append("replay fingerprint differs from learn()'s")
        shared["replay_fingerprint"] = network_fingerprint(network)
        root = spans.rows[0]
        task3 = next(r for r in spans.rows if r["name"] == "core.task3")
        unattributed = spans.self_time(root["id"]) + spans.self_time(task3["id"])
        shared["attributed_frac"] = 1.0 - unattributed / (root["end"] - root["start"])
        chain_units = sum(
            units
            for phase, units in chain_trace.phase_units().items()
            if phase.startswith("ganesh.")
        )
        chains_s = spans.total("ganesh.chains") / slow
        score_s = spans.total("trees.score_splits") / slow
        shared["score_splits_s"] = score_s
        return {
            "ganesh.chains_s": chains_s,
            "ganesh.chain_units": chain_units,
            "ganesh.units_per_s": chain_units / chains_s,
            "ganesh.obs_only_s": spans.total("ganesh.obs_only") / slow,
            "ganesh.obs_only_calls": spans.calls("ganesh.obs_only"),
            "ganesh.obs_only_units": obs_trace.total_units(),
            "consensus.cluster_s": spans.total("consensus.cluster") / slow,
            "trees.build_s": spans.total("trees.build") / slow,
            "trees.build_calls": spans.calls("trees.build"),
            "trees.score_splits_s": score_s,
            "trees.score_splits_calls": spans.calls("trees.score_splits"),
            "trees.candidate_splits": n_splits,
            "trees.splits_per_s": n_splits / score_s if score_s else 0.0,
            "trees.select_splits_s": spans.total("trees.select_splits") / slow,
            "trees.parents_s": spans.total("trees.parents") / slow,
            "trace.replay_unattributed_s": unattributed / slow,
        }

    def scoring_kernel():
        counters = shared["trace"].kernel_counters
        if not counters:
            raise LookupError("WorkTrace.kernel_counters is empty on this path")
        evaluations, hits = counters["evaluations"], counters["hits"]
        return {
            "scoring.kernel_evaluations": evaluations,
            "scoring.kernel_hits": hits,
            "scoring.kernel_hit_ratio": hits / max(1, hits + evaluations),
            "scoring.peak_chunk_elements": counters["peak_chunk_elements"],
            "scoring.kernel_evals_per_s": evaluations / shared["score_splits_s"],
        }

    def scoring_suffstats():
        from repro.scoring.suffstats import StatsArrays

        network = shared["network"]
        labels = network.assignment_labels()
        columns = np.ascontiguousarray(matrix.values.T)  # groups run over axis 1
        with section() as box:
            start = time.perf_counter()
            stats = StatsArrays.grouped(columns, labels, network.n_modules)
            elapsed = time.perf_counter() - start
        moved = columns.nbytes + labels.nbytes + 3 * 8 * len(stats)
        return {
            "scoring.suffstats_grouped_s": elapsed / box["slowdown"],
            "scoring.suffstats_grouped_bytes": moved,
        }

    def data():
        from repro.data.io import read_expression_tsv, write_expression_tsv

        path = tmp / f"{name}.tsv"
        with section() as box:
            start = time.perf_counter()
            write_expression_tsv(matrix, path)
            written = time.perf_counter()
            back = read_expression_tsv(path)
            read = time.perf_counter()
        # The TSV layout keeps 10 significant digits.
        if not np.allclose(back.values, matrix.values, rtol=1e-9, atol=0.0):
            problems.append("TSV round trip changed the matrix")
        return {
            "data.generate_s": ctx.parts["generate_s"] / ctx.setup["slowdown"],
            "data.tsv_write_s": (written - start) / box["slowdown"],
            "data.tsv_read_s": (read - written) / box["slowdown"],
            "data.tsv_bytes": path.stat().st_size,
        }

    def native():
        return {
            "native.available": int(ctx.parts["native"]["status"] == "native"),
            "native.load_s": ctx.parts["native_load_s"] / ctx.setup["slowdown"],
        }

    def output():
        from repro.core.output import network_to_json

        with section() as box:
            start = time.perf_counter()
            document = network_to_json(shared["network"])
            elapsed = time.perf_counter() - start
        return {
            "core.to_json_s": elapsed / box["slowdown"],
            "core.output_bytes": len(document.encode()),
        }

    def quality():
        from repro.validation.metrics import recovery_metrics

        found = recovery_metrics(shared["network"], ctx.truth)
        return {f"quality.{key}": value for key, value in found.items()}

    def modules_members():
        return [list(m.members) for m in shared["network"].modules]

    def parents():
        return np.asarray(
            ctx.config.resolve_candidate_parents(matrix.n_vars), dtype=np.int64
        )

    def executor():
        from repro.parallel.executor import TaskPoolExecutor
        from repro.parallel.trace import WorkTrace

        trace = WorkTrace()
        with section() as box:
            start = time.perf_counter()
            pool = TaskPoolExecutor(matrix.values, parents(), ctx.config, seed)
            built = time.perf_counter()
            try:
                pool.learn_modules(modules_members(), trace=trace)
                learned = time.perf_counter()
            finally:
                pool.close()
            closed = time.perf_counter()
        slow = box["slowdown"]
        busy = [t / slow for t in trace.worker_times.values()]
        learn_s = (learned - built) / slow
        pool_stats = shared["stats"]["executor"]
        return {
            "executor.construct_s": (built - start) / slow,
            "executor.learn_modules_s": learn_s,
            "executor.close_s": (closed - learned) / slow,
            "executor.worker_busy_s": sum(busy),
            "executor.worker_busy_max_s": max(busy),
            "executor.worker_imbalance": trace.worker_imbalance(),
            "executor.task3_overhead_s": learn_s - max(busy),
            "executor.idle_frac": 1.0 - sum(busy) / (pool.n_workers * learn_s),
            "executor.steals": trace.total_steals(),
            "executor.pools_constructed": pool_stats["pools_constructed"],
            "executor.matrix_transfers": pool_stats["matrix_transfers"],
            "executor.worker_inits": pool_stats["worker_inits"],
        }

    def sharding():
        from repro.parallel.sharding import ShardedExecutor
        from repro.parallel.trace import WorkTrace

        trace = WorkTrace()
        with section() as box:
            start = time.perf_counter()
            tier = ShardedExecutor(matrix.values, parents(), ctx.config, seed)
            try:
                tier.start()
                started = time.perf_counter()
                tier.learn_modules(modules_members(), trace=trace)
                learned = time.perf_counter()
            finally:
                tier.close()
            closed = time.perf_counter()
        slow = box["slowdown"]
        busy = [t / slow for t in trace.node_times.values()]
        learn_s = (learned - started) / slow
        return {
            "sharding.start_s": (started - start) / slow,
            "sharding.learn_modules_s": learn_s,
            "sharding.close_s": (closed - learned) / slow,
            "sharding.node_busy_s": sum(busy),
            "sharding.node_busy_max_s": max(busy),
            "sharding.transfer_bytes": tier.stats.transfer_bytes,
            "sharding.channel_s": sum(trace.node_transfer_seconds.values()) / slow,
            "sharding.node_steals": trace.total_node_steals(),
            "sharding.tau_s": tier.calibration["tau"],
            "sharding.mu_s_per_word": tier.calibration["mu"],
            "sharding.task3_overhead_s": learn_s - max(busy),
        }

    def sequential_baseline():
        """T_1 on the same input, traced, for the model and the scaling
        rows (the projection replays this trace)."""
        from repro.parallel.trace import WorkTrace

        trace = WorkTrace()
        result, row, _ = timed_learn(
            learner_config(ctx.workload, ctx.size, sequential=True),
            matrix, seed, slowdown(), trace,
        )
        if result is None:
            raise RuntimeError(row["error"])
        if network_fingerprint(result.network) != shared["fingerprint"]:
            problems.append("network differs from the sequential learner's")
        shared["seq_trace"] = trace
        shared["seq_slowdown"] = row["slowdown"]
        shared["seq_wall"] = row["wall_raw_s"] / row["slowdown"]

    def scaling():
        if "seq_wall" not in shared:
            sequential_baseline()
        speedup = shared["seq_wall"] / shared["untraced_wall"]
        return {
            "scaling.speedup_vs_seq": speedup,
            "scaling.efficiency": speedup / 2,
        }

    def model():
        from repro.parallel.trace import project_time

        if "seq_trace" not in shared:
            sequential_baseline()
        projected = project_time(shared["seq_trace"], 2).total / shared["seq_slowdown"]
        measured = shared["untraced_wall"]
        return {
            "model.projected_wall_s": projected,
            "model.error_frac": abs(projected - measured) / measured,
        }

    def service():
        # Runs last: the daemon installs a process-wide score cache that
        # would turn later kernel evaluations in this interpreter into hits.
        from repro.service import InferenceService

        with section() as box, InferenceService(tmp / f"{name}-service") as daemon:
            start = time.perf_counter()
            job = daemon.submit(matrix, ctx.config, seed)
            payload = daemon.wait(job)
            cold = time.perf_counter() - start
            status = daemon.status(job)
            start = time.perf_counter()
            again = daemon.wait(daemon.submit(matrix, ctx.config, seed))
            warm = time.perf_counter() - start
            lease = daemon.stats()["executor"]
        if {payload["fingerprint"], again["fingerprint"]} != {shared["fingerprint"]}:
            problems.append("service network differs from learn()'s")
        slow = box["slowdown"]
        return {
            "service.cold_job_s": cold / slow,
            "service.queue_wait_s": (status["started_at"] - status["submitted_at"]) / slow,
            "service.overhead_s": (cold - payload["seconds"]) / slow,
            "service.warm_resubmit_s": warm / slow,
            "service.lease_builds": lease["builds"],
            "service.lease_reuses": lease["reuses"],
        }

    carried = {m.name for m in PER_LAYER if name in m.on}
    for prefixes, fn in (
        (("core.task", "core.n_", "trace.overhead"), core),
        (("ganesh.", "consensus.", "trees.", "trace.replay"), layers),
        (("scoring.kernel", "scoring.peak"), scoring_kernel),
        (("scoring.suffstats",), scoring_suffstats),
        (("data.",), data),
        (("native.",), native),
        (("core.to_json", "core.output"), output),
        (("quality.",), quality),
        (("executor.",), executor),
        (("sharding.",), sharding),
        (("scaling.",), scaling),
        (("model.",), model),
        (("service.",), service),
    ):
        if any(metric.startswith(prefixes) for metric in carried):
            run_probe(values, errors, prefixes, fn)

    if "fingerprint" not in shared:
        problems.append("learn() failed in the traced run")

    per_layer = {}
    gaps = []  # this run's nulls; the report adds the standing spec.GAPS
    for metric in PER_LAYER:
        if metric.name not in carried:
            per_layer[metric.name] = {
                "value": None, "unit": metric.unit,
                "error": f"not carried by {name}",
            }
            continue
        value = values.get(metric.name)
        error = errors.get(metric.name)
        if value is None and error is None:
            error = "probe did not report this metric"
        per_layer[metric.name] = {"value": value, "unit": metric.unit, "error": error}
        if value is None:
            gaps.append(f"{name}: {metric.name} is null ({error})")
    return {
        "attempted": 1,
        "failed": int(bool(problems)),
        "failed_frac": float(bool(problems)),
        "errors": problems,
        "fingerprint": shared.get("fingerprint"),
        "replay_fingerprint": shared.get("replay_fingerprint"),
        "attributed_frac": shared.get("attributed_frac"),
        "per_layer": per_layer,
        "spans": spans.rows,
        "gaps": gaps,
    }
