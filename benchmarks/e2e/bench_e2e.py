"""End-to-end, layer-attributed benchmark of the module-network learner.

    python3 benchmarks/e2e/bench_e2e.py [--workload NAME] [--seed 7]
        [--seconds 20 | --iterations N] [--repeat 1] [--trace {0,1}]
        [--size bench] [--out FILE]

Four closed-loop workloads (one client, one ``learn()`` at a time), each
in its own fresh interpreter: ``yeast_seq``, ``yeast_pool2``,
``yeast_shard2``, ``ganesh_ensemble``.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced
run that yields the per-layer numbers and the ``spans``.  Every metric is
printed by name with its unit, outputs are checked, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: everything the benchmark writes stays under here (git-ignored)
BUILD = ROOT / ".bench_build"
#: a child interpreter that has not answered by then is hung
CHILD_TIMEOUT_S = 170
#: one BLAS / OpenMP thread per process, so the load is ``n_workers``
#: processes; must be in the environment before NumPy loads
THREAD_POOLS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


def child_env() -> dict:
    """Hermetic environment of the per-workload interpreters: single
    threaded pools, ``src/`` importable, native build cache inside the
    checkout."""
    env = {**os.environ, **THREAD_POOLS}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    return env


def run_child(mode: str, workload: str, args, tmp: Path) -> dict:
    """One fresh interpreter through set-up and, per ``mode``, the loop."""
    from calibrate import slowdown

    result = Path(tempfile.mkstemp(dir=tmp, suffix=".json")[1])
    command = [
        sys.executable, str(HERE / "child.py"),
        "--mode", mode, "--workload", workload, "--size", args.size,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--result", str(result), "--tmp", str(tmp),
    ]
    if args.iterations is not None:
        command += ["--iterations", str(args.iterations)]
    slow0 = slowdown()
    command += ["--slow0", repr(slow0), "--t0", repr(time.time())]
    # The program's own prints go to stderr: stdout ends with our JSON line.
    # Own session, so that a hung run's pool workers and shard nodes can be
    # stopped with it.
    child = subprocess.Popen(
        command, env=child_env(), cwd=ROOT, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        try:  # whatever the run left behind, a hung interpreter included
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0:
        raise RuntimeError(f"{workload} ({mode}) exited with {code}")
    return json.loads(result.read_text())


def ensure_built(workload: str, args, tmp: Path) -> None:
    """First run in a checkout: one untimed set-up compiles the native
    kernel and the .pyc files, so no timed set-up pays for the build."""
    marker = BUILD / "built"
    if not marker.exists():
        run_child("setup", workload, args, tmp)
        marker.touch()


def measure_once(workload: str, args, tmp: Path) -> dict:
    """One run of one workload: its set-ups and its timed loop."""
    from calibrate import summary
    from spec import SETUP_REPEATS

    setups = [
        run_child("setup", workload, args, tmp)["setup"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    report = run_child("run", workload, args, tmp)
    setups.append(report["setup"])
    report["setups"] = setups
    report["end_to_end"]["setup_s"] = summary(s["value"] for s in setups)
    return report


def measure(workload: str, args, tmp: Path) -> dict:
    """All the runs of one workload, folded into its report."""
    from calibrate import summary
    from spec import END_TO_END, WORKLOADS

    ensure_built(workload, args, tmp)
    if args.trace:
        report = run_child("trace", workload, args, tmp)
    else:
        runs = [measure_once(workload, args, tmp) for _ in range(args.repeat)]
        report = runs[-1]
        if args.repeat > 1:
            # A set of runs: each metric is the median of the runs' values,
            # and its IQR the run-to-run spread compare.py judges by.
            report["runs"] = [
                {key: run[key] for key in ("end_to_end", "raw", "iterations", "setups")}
                for run in runs
            ]
            report["attempted"] = sum(run["attempted"] for run in runs)
            report["failed"] = sum(run["failed"] for run in runs)
            report["failed_frac"] = report["failed"] / report["attempted"]
            report["errors"] = [e for run in runs for e in run["errors"]]
            if len({run["fingerprint"] for run in runs}) > 1:
                report["failed"] = report["attempted"]
                report["errors"].append("fingerprint differs between runs")
            report["end_to_end"] = {
                metric.name: summary(
                    run["end_to_end"][metric.name]["median"] for run in runs
                )
                for metric in END_TO_END
            }
        for metric in END_TO_END:
            entry = report["end_to_end"][metric.name]
            entry.update(value=entry["median"], unit=metric.unit, bound=metric.bound)
    report["why"] = WORKLOADS[workload].why
    return report


def contract_metrics(report: dict, trace: bool) -> dict:
    """The metrics of the last output line: numbers only (a per-layer
    metric this workload does not carry, or whose probe failed, reads 0;
    ``--out`` keeps the null and the reason)."""
    if trace:
        return {
            name: {"value": entry["value"] or 0, "unit": entry["unit"]}
            for name, entry in report["per_layer"].items()
        }
    return {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in report["end_to_end"].items()
    }


def print_report(workload: str, report: dict, trace: bool) -> None:
    print(f"== {workload}: {report['attempted']} attempted, "
          f"{report['failed']} failed (failed_frac {report['failed_frac']:.3f}), "
          f"fingerprint {report['fingerprint']}")
    for error in report["errors"]:
        print(f"   ! {error}")
    if trace:
        print(f"   replay fingerprint {report['replay_fingerprint']}, "
              f"attributed {report['attributed_frac']}")
        for name, entry in report["per_layer"].items():
            shown = entry["value"] if entry["value"] is not None else f"null ({entry['error']})"
            print(f"   {name:34s} {shown} {entry['unit']}")
        return
    for name, entry in report["end_to_end"].items():
        if entry["value"] is None:
            print(f"   {name:12s} null (no iteration succeeded)")
            continue
        print(f"   {name:12s} {entry['value']:.4f} {entry['unit']}"
              f"  (min {entry['min']:.4f}, max {entry['max']:.4f},"
              f" IQR {entry['iqr']:.4f}, n {entry['n']}, bound +{entry['bound']:.0%})")
    raw = report["raw"]
    print(f"   uncalibrated: wall {raw['wall_raw_s']['median']:.4f} s, "
          f"cpu {raw['cpu_raw_s']['median']:.4f} s, machine slowdown "
          f"{raw['slowdown']['median']:.3f}, work factor {report['work_factor']:.4f}")


def main(argv=None) -> int:
    # Before NumPy loads in this process too (the yardstick uses it).
    os.environ.update(THREAD_POOLS)
    from spec import DEFAULT_SEED, GAPS, RUN_SECONDS, SIZES, WORKLOADS, scale_factors

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="draws the measurement noise; the learner gets seed + 24")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of the timed window (never under 3 iterations)")
    parser.add_argument("--iterations", type=int,
                        help="run exactly this many timed iterations instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics and spans)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload; report their medians")
    parser.add_argument("--size", choices=list(SIZES), default="bench")
    parser.add_argument("--out", help="write the full report (JSON) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_e2e: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    BUILD.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    try:
        for name in names:
            reports[name] = measure(name, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = all(r["failed"] == 0 for r in reports.values())
    yeast = {r["fingerprint"] for n, r in reports.items() if n.startswith("yeast_")}
    if len(yeast) > 1:
        correct = False
        print("! the yeast_* workloads learned different networks", file=sys.stderr)
    for name, report in reports.items():
        print_report(name, report, bool(args.trace))

    if args.out:
        document = {
            "schema": "bench_e2e/1",
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "scale": scale_factors(SIZES[args.size]),
            "machine": next(iter(reports.values()))["machine"],
            "workloads": reports,
            "gaps": sorted(
                set(GAPS).union(*(r.get("gaps", ()) for r in reports.values()))
            ),
        }
        Path(args.out).write_text(json.dumps(document, indent=1))

    metrics = {}
    for name, report in reports.items():
        for metric, entry in contract_metrics(report, bool(args.trace)).items():
            metrics[metric if args.workload else f"{name}.{metric}"] = entry
    if any(entry["value"] is None for entry in metrics.values()):
        return 1  # nothing succeeded: no result line
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
