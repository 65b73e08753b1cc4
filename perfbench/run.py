#!/usr/bin/env python3
"""Build and run the relation benchmark once.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the library sources
under src/ plus the benchmark program) into the build directory: $CARGO_TARGET_DIR
when it is set, else .bench_build, relative to the checkout root. Later
calls rebuild only what changed. Build output goes to standard error;
standard output carries the program's report, whose last line is the
JSON result. The exit code is the program's: 0 iff the oracle passed.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lookup", "churn", "txn-durable")


def build(root: Path, build_dir: Path) -> Path:
    source = root / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(source), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "relbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "relbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else root / target
    program = build(root, build_root / "perfbench")

    workdir = build_root / f"run-{os.getpid()}"
    cmd = [str(program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.spans.csv")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
