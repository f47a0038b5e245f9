#!/usr/bin/env python3
"""Benchmark of qbs: closed-loop ``assess`` workloads over a generated table.

Run one workload (from the root of a checkout; builds nothing, Python only):

    python3 bench/run.py --workload count_seq --seed 1 --seconds 15 --trace 0

It prints a report line, ``{"report": {...}}``, with every metric, its unit,
sample count and the run's provenance, and as the last line the result
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Run every workload, each in its own process, untraced and then traced, and
print all metrics as a table (``--out`` also writes them as JSON):

    python3 bench/run.py --workload all --seed 1 --seconds 15 --out FILE

The program is imported from ``src/`` of the same checkout and nowhere
else; without it the run exits with status 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The machine has two cores and the load model is one thread, so BLAS and
# OpenMP pools are pinned to one thread before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure qbs comes from it."""
    package = SRC / "qbs"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import qbs

    if Path(qbs.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported qbs from {qbs.__file__}, expected {package}")


def run_one(args) -> None:
    import_program()
    import harness

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        threads = {v: os.environ[v] for v in THREAD_VARS}
        result, report = harness.run(
            ROOT, workdir, args.workload, args.seed, args.seconds, bool(args.trace), threads
        )
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"report": report}))
    print(json.dumps(result))


def run_all(args, names) -> None:
    summary = {}
    for name in names:
        summary[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(f"bench: {name} --trace {trace} exited with {done.returncode}")
            lines = done.stdout.splitlines()
            report = json.loads(lines[-2])["report"]
            report["result"] = json.loads(lines[-1])
            summary[name]["traced" if trace else "untraced"] = report
            result = report["result"]
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in report["metrics"].items():
                samples = f"  (n={m['samples']})" if "samples" in m else ""
                print(f"  {metric:32} {m['value']:>16.6g} {m['unit']}{samples}")
            sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


def main() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import workloads  # imports numpy, so only after the thread pins are set

    parser = argparse.ArgumentParser(description="Benchmark of qbs assess workloads.")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every report as JSON here")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        run_all(args, list(workloads.WORKLOADS))
    else:
        run_one(args)


if __name__ == "__main__":
    main()
