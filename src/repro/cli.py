"""Command-line interface: the Lemon-Tree-style driver.

Subcommands::

    python -m repro generate --n 120 --m 80 --out expr.tsv
    python -m repro learn --input expr.tsv --seed 1 --out-json net.json
    python -m repro learn --preset yeast --scale 0.01 --out-xml net.xml
    python -m repro scale --input expr.tsv --seed 1 --procs 4 64 1024
    python -m repro compare --input expr.tsv --seed 1 --modules 6
    python -m repro serve --dir run/ &
    python -m repro submit --service run/ --input expr.tsv --seed 1 --wait

``learn`` runs the full Lemon-Tree pipeline (optionally with acyclicity
post-processing), ``scale`` records a work trace and prints the projected
strong-scaling table, ``compare`` pits the Lemon-Tree pipeline against the
GENOMICA-style two-step learner, and ``generate`` writes synthetic
module-structured expression data.

Every learning subcommand takes ``--workers W`` (0 = all cores the
affinity mask allows; 1 runs in-process), which sizes the shared-memory
task-pool executor, and ``--kernel-backend``, the split-scoring
implementation; ``learn``, ``modules`` and ``submit`` add ``--schedule
{static,dynamic}`` (how the pool's one shared queue is cut) and, with
``ganesh``, ``--nodes N`` (the shard tier).  All of these decide where
and how fast work runs: the learned network is bit-identical whatever
the setting.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_to_json, network_to_xml
from repro.data.io import read_expression_tsv, write_expression_tsv
from repro.data.synthetic import make_module_dataset, thaliana_like, yeast_like
from repro.datatypes import ExpressionMatrix
from repro.scoring.kernel import KERNEL_BACKENDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Parallel construction of module networks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic expression matrix")
    gen.add_argument("--n", type=int, default=100, help="number of genes")
    gen.add_argument("--m", type=int, default=60, help="number of observations")
    gen.add_argument("--modules", type=int, default=None, help="ground-truth modules")
    gen.add_argument("--noise", type=float, default=0.4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output TSV path")

    learn = sub.add_parser("learn", help="learn a module network")
    _add_data_args(learn)
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--ganesh-runs", type=int, default=1, help="GaneSH runs (G)")
    learn.add_argument("--update-steps", type=int, default=1, help="update steps (U)")
    learn.add_argument("--init-clusters", type=float, default=None,
                       help="initial variable clusters (int, or fraction of n)")
    learn.add_argument("--splits", type=int, default=2, help="splits per node (J)")
    learn.add_argument("--sampling-steps", type=int, default=10,
                       help="max discrete sampling steps per split (S)")
    _add_executor_args(learn)
    learn.add_argument("--checkpoint-dir", default=None,
                       help="resume/continue directory: task 1 writes "
                            "ganesh_<g>.npz, task 3 module_<id>.json")
    learn.add_argument("--acyclic", action="store_true",
                       help="post-process the network into a DAG")
    learn.add_argument("--out-json", default=None)
    learn.add_argument("--out-xml", default=None)

    scale = sub.add_parser("scale", help="strong-scaling projection study")
    _add_data_args(scale)
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--sampling-steps", type=int, default=10)
    scale.add_argument("--procs", type=int, nargs="+",
                       default=[1, 4, 16, 64, 256, 1024, 4096])
    scale.add_argument("--tau", type=float, default=None, help="latency (s)")
    scale.add_argument("--mu", type=float, default=None, help="per-word time (s)")

    compare = sub.add_parser(
        "compare", help="Lemon-Tree pipeline vs GENOMICA-style learner"
    )
    _add_data_args(compare)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--modules", type=int, default=8,
                         help="module count for the GENOMICA learner")
    compare.add_argument("--workers", type=int, default=1, metavar="W",
                        help="worker processes for both learners (0 = all "
                             "cores; >1 runs the persistent pool executor)")
    _add_kernel_arg(compare)

    # Task-by-task workflow (how Lemon-Tree itself is driven: separate
    # invocations exchanging intermediate files, so the G GaneSH runs can
    # be separate cluster jobs).
    ganesh = sub.add_parser("ganesh", help="task 1: sample variable clusterings")
    _add_data_args(ganesh)
    ganesh.add_argument("--seed", type=int, default=0)
    ganesh.add_argument("--runs", type=int, default=1, help="GaneSH runs (G)")
    ganesh.add_argument("--update-steps", type=int, default=1)
    ganesh.add_argument("--init-clusters", type=float, default=None)
    ganesh.add_argument("--workers", type=int, default=1, metavar="W",
                        help="worker processes for the G runs (0 = all cores; "
                             ">1 runs the persistent pool executor)")
    _add_kernel_arg(ganesh)
    _add_node_args(ganesh)
    ganesh.add_argument("--checkpoint-dir", default=None,
                        help="resume/continue directory for per-run "
                             "ganesh_<g>.npz checkpoints")
    ganesh.add_argument("--out", required=True, help="clusterings JSON")

    consensus = sub.add_parser("consensus", help="task 2: consensus modules")
    consensus.add_argument("--inputs", nargs="+", required=True,
                           help="clustering JSON files from the ganesh task")
    consensus.add_argument("--threshold", type=float, default=0.25)
    consensus.add_argument("--max-modules", type=int, default=None)
    consensus.add_argument("--out", required=True, help="modules JSON")

    modules = sub.add_parser("modules", help="task 3: trees, splits, parents")
    _add_data_args(modules)
    modules.add_argument("--seed", type=int, default=0)
    modules.add_argument("--modules-file", required=True,
                         help="modules JSON from the consensus task")
    modules.add_argument("--splits", type=int, default=2)
    modules.add_argument("--sampling-steps", type=int, default=10)
    modules.add_argument("--checkpoint-dir", default=None,
                         help="resume/continue directory for per-module checkpoints")
    _add_executor_args(modules)
    modules.add_argument("--out-json", default=None)
    modules.add_argument("--out-xml", default=None)

    report = sub.add_parser("report", help="summarize a learned network")
    report.add_argument("--network", required=True, help="network JSON file")
    report.add_argument("--top", type=int, default=3, help="regulators per module")

    trace = sub.add_parser("trace", help="inspect a saved work trace")
    trace.add_argument("action", choices=["summarize"])
    trace.add_argument("path", help="trace file written by save_trace (.npz)")

    validate = sub.add_parser(
        "validate",
        help="scenario-matrix differential validation across backends",
        description="Run adversarial data scenarios (ties, missing data, "
                    "degenerate modules, extreme scales, ...) through every "
                    "backend combination — worker counts x scoring-kernel "
                    "backends x RNG backends — asserting bit-identity of the "
                    "learned network against the sequential reference and "
                    "reporting ground-truth recovery metrics per scenario.",
    )
    validate.add_argument("--smoke", action="store_true",
                          help="the reduced CI grid: fewer scenarios at "
                               "smaller shapes and fewer worker counts "
                               "(bit-identity asserts are unchanged)")
    validate.add_argument("--scenarios", nargs="+", default=None,
                          metavar="NAME",
                          help="run only these scenarios (default: the full "
                               "registry, or the smoke subset with --smoke)")
    validate.add_argument("--list", action="store_true", dest="list_scenarios",
                          help="list registered scenarios and exit")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--workers", type=int, nargs="+", default=None,
                          metavar="W",
                          help="worker counts to differentiate (default: "
                               "1 2 with --smoke, else 1 2 4)")
    validate.add_argument("--nodes", type=int, nargs="+", default=None,
                          metavar="N",
                          help="shard node counts to differentiate (e.g. "
                               "'--nodes 1 2' also runs every scenario on "
                               "the multi-node tier, asserting the same "
                               "bit-identity against the sequential "
                               "reference)")
    validate.add_argument("--out", default=None,
                          help="write the JSON scenario report here")

    # Always-on inference service (daemon + client verbs).  The daemon
    # owns one warm executor lease across jobs; clients talk to it over a
    # localhost socket discovered through <dir>/endpoint.json.
    serve = sub.add_parser(
        "serve",
        help="run the always-on inference daemon",
        description="Start a persistent job daemon in DIR: one warm "
                    "executor lease serves consecutive jobs and per-job "
                    "checkpoint namespaces answer repeat queries.  "
                    "Clients find it through "
                    "DIR/endpoint.json; every served network is "
                    "bit-identical to a fresh one-shot learn.",
    )
    serve.add_argument("--dir", required=True, metavar="DIR",
                       help="run directory: endpoint.json and per-job "
                            "checkpoint namespaces live here")
    serve.add_argument("--port", type=int, default=0,
                       help="localhost port (0 = let the OS pick)")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="admission bound on queued + running jobs")

    submit = sub.add_parser("submit", help="submit a job to a running daemon")
    submit.add_argument("--service", required=True, metavar="DIR",
                        help="the daemon's run directory (--dir of serve)")
    _add_data_args(submit)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--ganesh-runs", type=int, default=1)
    submit.add_argument("--update-steps", type=int, default=1)
    submit.add_argument("--init-clusters", type=float, default=None)
    submit.add_argument("--splits", type=int, default=2)
    submit.add_argument("--sampling-steps", type=int, default=10)
    _add_executor_args(submit)
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first; FIFO within a level")
    submit.add_argument("--no-checkpoints", action="store_true",
                        help="skip the job's checkpoint namespace "
                             "(results are identical either way)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print its "
                             "result summary")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds")
    submit.add_argument("--out-json", default=None,
                        help="with --wait: write the learned network here")

    status = sub.add_parser("status", help="show daemon job states")
    status.add_argument("--service", required=True, metavar="DIR")
    status.add_argument("--job", default=None, help="one job id (default: all)")
    status.add_argument("--stats", action="store_true",
                        help="also print service counters and executor-lease "
                             "stats")

    result = sub.add_parser("result", help="fetch a finished job's network")
    result.add_argument("--service", required=True, metavar="DIR")
    result.add_argument("--job", required=True, help="job id from submit")
    result.add_argument("--out-json", default=None,
                        help="write the learned network JSON here")

    cancel = sub.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("--service", required=True, metavar="DIR")
    cancel.add_argument("--job", required=True, help="job id from submit")

    shutdown = sub.add_parser("shutdown", help="stop a running daemon")
    shutdown.add_argument("--service", required=True, metavar="DIR")
    return parser


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, metavar="W",
                        help="worker processes for the parallel tasks (0 = all "
                             "cores; >1 runs the persistent shared-memory "
                             "task-pool executor)")
    parser.add_argument("--schedule", choices=["static", "dynamic"],
                        default="dynamic",
                        help="executor dispatch: static blocks or dynamic "
                             "largest-first pulling")
    _add_kernel_arg(parser)
    _add_node_args(parser)


def _add_kernel_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel-backend", choices=list(KERNEL_BACKENDS),
                        default="auto",
                        help="split-scoring backend: the NumPy oracle "
                             "(numpy), the certified native extension "
                             "(native; errors when unavailable), or probe "
                             "and fall back (auto) — backends are "
                             "bit-identical, this is purely a speed knob")


def _add_node_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=1, metavar="N",
                        help="shard nodes (>1 runs the multi-node tier: N "
                             "nodes, each running its own W-worker pool, "
                             "pull batches from the scheduler's one ordered "
                             "list; results are bit-identical for any node "
                             "count)")


def _parallel_config(args: argparse.Namespace) -> ParallelConfig:
    """The unified executor knobs shared by every learning subcommand."""
    return ParallelConfig(
        n_workers=getattr(args, "workers", 1),
        schedule=getattr(args, "schedule", "dynamic"),
        kernel_backend=getattr(args, "kernel_backend", "auto"),
        n_nodes=getattr(args, "nodes", 1),
    )


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="expression matrix TSV")
    source.add_argument("--preset", choices=["yeast", "thaliana"],
                        help="synthetic preset data set")
    parser.add_argument("--scale", type=float, default=1 / 64,
                        help="preset scale factor (with --preset)")


def _load_matrix(args: argparse.Namespace) -> ExpressionMatrix:
    if args.input:
        return read_expression_tsv(args.input)
    preset = yeast_like if args.preset == "yeast" else thaliana_like
    return preset(scale=args.scale).matrix


def _learner_config(args: argparse.Namespace) -> LearnerConfig:
    init = args.init_clusters if hasattr(args, "init_clusters") else None
    if init is not None and init >= 1:
        init = int(init)
    return LearnerConfig(
        n_ganesh_runs=getattr(args, "ganesh_runs", 1),
        n_update_steps=getattr(args, "update_steps", 1),
        init_var_clusters=init,
        n_splits_per_node=getattr(args, "splits", 2),
        max_sampling_steps=getattr(args, "sampling_steps", 10),
        parallel=_parallel_config(args),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = make_module_dataset(
        args.n, args.m, n_modules=args.modules, noise=args.noise, seed=args.seed
    )
    write_expression_tsv(dataset.matrix, args.out)
    print(f"wrote {args.out}: {dataset.matrix.n_vars} x {dataset.matrix.n_obs} "
          f"({dataset.truth.n_modules} ground-truth modules)")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    config = _learner_config(args)
    t0 = time.perf_counter()
    network = LemonTreeLearner(config).learn(
        matrix, seed=args.seed, checkpoint_dir=args.checkpoint_dir
    ).network
    workers = config.resolve_n_workers()
    n_nodes = config.parallel.n_nodes
    if n_nodes > 1:
        mode = f"sharded n={n_nodes} x w={workers}"
    elif workers > 1:
        mode = f"executor w={workers}"
    else:
        mode = "sequential"
    elapsed = time.perf_counter() - t0

    removed = []
    if args.acyclic:
        from repro.analysis.acyclicity import make_acyclic

        network, removed = make_acyclic(network)

    print(f"learned {network.n_modules} modules from {matrix.n_vars} x "
          f"{matrix.n_obs} in {elapsed:.1f} s ({mode})")
    if removed:
        print(f"acyclicity post-processing removed {len(removed)} module edge(s)")
    for module in network.modules:
        top = sorted(module.weighted_parents.items(), key=lambda kv: -kv[1])[:3]
        regs = ", ".join(f"{matrix.var_names[p]}({s:.2f})" for p, s in top)
        print(f"  M{module.module_id}: {module.size} genes; regulators: {regs or '-'}")

    if args.out_json:
        Path(args.out_json).write_text(network_to_json(network), encoding="utf-8")
        print(f"wrote {args.out_json}")
    if args.out_xml:
        Path(args.out_xml).write_text(network_to_xml(network), encoding="utf-8")
        print(f"wrote {args.out_xml}")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.parallel.costmodel import PHOENIX_LIKE, MachineModel
    from repro.parallel.trace import WorkTrace, project_time

    matrix = _load_matrix(args)
    config = LearnerConfig(max_sampling_steps=args.sampling_steps)
    trace = WorkTrace()
    result = LemonTreeLearner(config).learn(matrix, seed=args.seed, trace=trace)
    t1 = result.task_times.total
    model = PHOENIX_LIKE
    if args.tau is not None or args.mu is not None:
        model = MachineModel(
            tau=args.tau if args.tau is not None else PHOENIX_LIKE.tau,
            mu=args.mu if args.mu is not None else PHOENIX_LIKE.mu,
        )
    print(f"T_1 = {t1:.2f} s on {matrix.n_vars} x {matrix.n_obs}")
    print(f"{'p':>6} {'T_p (s)':>10} {'speedup':>9} {'efficiency':>11} {'imbalance':>10}")
    for p in args.procs:
        tp = project_time(trace, p, model=model).total
        print(f"{p:>6} {tp:>10.3f} {t1 / tp:>9.1f} {t1 / tp / p:>11.0%} "
              f"{trace.split_imbalance(p):>10.2f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.genomica import GenomicaConfig, GenomicaLearner

    matrix = _load_matrix(args)
    parallel = _parallel_config(args)
    t0 = time.perf_counter()
    lemon = LemonTreeLearner(
        LearnerConfig(parallel=parallel)
    ).learn(matrix, seed=args.seed)
    t_lemon = time.perf_counter() - t0
    t0 = time.perf_counter()
    genomica = GenomicaLearner(
        GenomicaConfig(n_modules=args.modules, parallel=parallel)
    ).learn(matrix, seed=args.seed)
    t_genomica = time.perf_counter() - t0

    print(f"{'approach':<22} {'modules':>8} {'time (s)':>9}")
    print(f"{'Lemon-Tree pipeline':<22} {lemon.network.n_modules:>8} {t_lemon:>9.1f}")
    print(f"{'GENOMICA two-step':<22} {genomica.network.n_modules:>8} {t_genomica:>9.1f}")
    from repro.analysis.recovery import adjusted_rand_index

    agreement = adjusted_rand_index(
        lemon.network.assignment_labels(), genomica.network.assignment_labels()
    )
    print(f"module-assignment agreement (ARI): {agreement:.2f}")
    return 0


def cmd_ganesh(args: argparse.Namespace) -> int:
    import json

    matrix = _load_matrix(args)
    init = args.init_clusters
    if init is not None and init >= 1:
        init = int(init)
    config = LearnerConfig(
        n_ganesh_runs=args.runs,
        n_update_steps=args.update_steps,
        init_var_clusters=init,
        parallel=_parallel_config(args),
    )
    samples = LemonTreeLearner(config).sample_clusterings(
        matrix, seed=args.seed, checkpoint_dir=args.checkpoint_dir
    )
    payload = {
        "n_vars": matrix.n_vars,
        "seed": args.seed,
        "samples": [[int(v) for v in s] for s in samples],
    }
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    print(f"wrote {args.out}: {len(samples)} clustering sample(s) for "
          f"{matrix.n_vars} variables")
    return 0


def cmd_consensus(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    samples = []
    n_vars = None
    for path in args.inputs:
        payload = json.loads(Path(path).read_text())
        if n_vars is None:
            n_vars = payload["n_vars"]
        elif n_vars != payload["n_vars"]:
            raise SystemExit(f"{path}: variable count mismatch")
        samples.extend(np.asarray(s) for s in payload["samples"])
    config = LearnerConfig(
        consensus_threshold=args.threshold, max_modules=args.max_modules
    )
    modules = LemonTreeLearner(config).consensus(samples)
    Path(args.out).write_text(
        json.dumps({"n_vars": n_vars, "modules": modules}), encoding="utf-8"
    )
    print(f"wrote {args.out}: {len(modules)} consensus modules from "
          f"{len(samples)} sample(s)")
    return 0


def cmd_modules(args: argparse.Namespace) -> int:
    import json

    matrix = _load_matrix(args)
    payload = json.loads(Path(args.modules_file).read_text())
    if payload["n_vars"] != matrix.n_vars:
        raise SystemExit(
            f"{args.modules_file}: modules were built for {payload['n_vars']} "
            f"variables, matrix has {matrix.n_vars}"
        )
    config = LearnerConfig(
        n_splits_per_node=args.splits, max_sampling_steps=args.sampling_steps,
        parallel=_parallel_config(args),
    )
    result = LemonTreeLearner(config).learn_from_modules(
        matrix, payload["modules"], seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
    )
    network = result.network
    workers = config.resolve_n_workers()
    mode = f"executor w={workers}" if workers > 1 else "sequential"
    print(f"learned trees and parents for {network.n_modules} modules "
          f"in {result.task_times.modules:.1f} s ({mode})")
    if args.out_json:
        Path(args.out_json).write_text(network_to_json(network), encoding="utf-8")
        print(f"wrote {args.out_json}")
    if args.out_xml:
        Path(args.out_xml).write_text(network_to_xml(network), encoding="utf-8")
        print(f"wrote {args.out_xml}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import network_report, parent_score_summary
    from repro.core.output import network_from_json

    network = network_from_json(Path(args.network).read_text())
    print(network_report(network, top_regulators=args.top))
    summary = parent_score_summary(network)
    if summary.get("n_weighted_parents"):
        print()
        print("parent-score summary: "
              + ", ".join(f"{k}={v:.3g}" for k, v in summary.items()))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.parallel.trace import load_trace, summarize_trace

    print(summarize_trace(load_trace(args.path)))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import SCENARIOS, run_matrix

    if args.list_scenarios:
        width = max(len(name) for name in SCENARIOS)
        for name, spec in SCENARIOS.items():
            print(f"{name:<{width}}  {spec.description}")
        return 0

    worker_counts = tuple(args.workers) if args.workers else None
    node_counts = tuple(args.nodes) if args.nodes else None
    t0 = time.perf_counter()
    report = run_matrix(
        scenario_names=args.scenarios,
        seed=args.seed,
        smoke=args.smoke,
        worker_counts=worker_counts,
        node_counts=node_counts,
    )
    elapsed = time.perf_counter() - t0
    print(report.summarize())
    print(f"validated in {elapsed:.1f} s")
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient.from_dir(args.service)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceDaemon

    daemon = ServiceDaemon(args.dir, port=args.port, max_inflight=args.max_inflight)
    with daemon:
        print(f"serving on {daemon.host}:{daemon.port} "
              f"(endpoint {daemon.endpoint_path})", flush=True)
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
    print("daemon stopped")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    config = _learner_config(args)
    client = _service_client(args)
    job_id = client.submit(
        matrix, config, args.seed,
        priority=args.priority,
        use_checkpoints=not args.no_checkpoints,
    )
    print(f"submitted {job_id}")
    if not args.wait:
        return 0
    payload = client.wait(job_id, timeout=args.timeout)
    print(f"{job_id} done: {payload['n_modules']} modules in "
          f"{payload['seconds']:.2f} s (fingerprint {payload['fingerprint'][:16]})")
    if args.out_json:
        Path(args.out_json).write_text(payload["network_json"], encoding="utf-8")
        print(f"wrote {args.out_json}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    rows = client.status(args.job)
    if isinstance(rows, dict):
        rows = [rows]
    if not rows:
        print("no jobs")
    else:
        print(f"{'job':<12} {'state':<10} {'prio':>4} {'seed':>6}  fingerprint")
        for row in rows:
            print(f"{row['job_id']:<12} {row['state']:<10} "
                  f"{row['priority']:>4} {row['seed']:>6}  "
                  f"{row['fingerprint'][:16]}")
            if row.get("error"):
                print(f"{'':<12} error: {row['error']['type']}: "
                      f"{row['error']['message']}")
    if args.stats:
        import json as _json

        print(_json.dumps(client.stats(), indent=2, default=str))
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    client = _service_client(args)
    payload = client.result(args.job)
    print(f"{args.job}: {payload['n_modules']} modules in "
          f"{payload['seconds']:.2f} s (fingerprint {payload['fingerprint'][:16]})")
    if args.out_json:
        Path(args.out_json).write_text(payload["network_json"], encoding="utf-8")
        print(f"wrote {args.out_json}")
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    cancelled = _service_client(args).cancel(args.job)
    print(f"{args.job}: {'cancelled' if cancelled else 'not cancellable'}")
    return 0 if cancelled else 1


def cmd_shutdown(args: argparse.Namespace) -> int:
    _service_client(args).shutdown()
    print("shutdown requested")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "learn": cmd_learn,
    "scale": cmd_scale,
    "compare": cmd_compare,
    "ganesh": cmd_ganesh,
    "consensus": cmd_consensus,
    "modules": cmd_modules,
    "report": cmd_report,
    "trace": cmd_trace,
    "validate": cmd_validate,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "result": cmd_result,
    "cancel": cmd_cancel,
    "shutdown": cmd_shutdown,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
