"""Entry point of the per-workload interpreter.

Started by ``bench_e2e.py``, which puts ``src/`` on ``PYTHONPATH``, pins
the BLAS/OpenMP pools to one thread and points the native build cache
inside the checkout *before* this interpreter (and NumPy) starts.  The
result goes to ``--result`` as JSON; stdout is left to the program.

Everything runs under the ``__main__`` check: shard nodes use the spawn
context and re-import this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv=None) -> int:
    from spec import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--t0", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--slow0", type=float, required=True, help="slowdown at spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory")
    args = parser.parse_args(argv)

    from workload import machine_block, run_timed, set_up

    load_start = os.getloadavg()
    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    ctx = set_up(workload, size, args.seed, args.t0, args.slow0)
    out = {"setup": ctx.setup, "parts": ctx.parts}
    if args.mode == "run":
        out.update(run_timed(ctx, args.seconds, args.iterations))
    elif args.mode == "trace":
        from probes import run_traced

        out.update(run_traced(ctx, Path(args.tmp), args.iterations))
    # "setup" stops here: importing, building and warming is all it is for.
    out["machine"] = machine_block(load_start)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
