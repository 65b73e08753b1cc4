#!/usr/bin/env python3
"""Run one benchmark workload K times and report how much each metric moves.

    python3 perfbench/steadiness.py --workload churn --runs 5 [--first-seed 1]
        [--seconds 10] [--trace 0]

Each run uses the next seed. Per metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the quartile spread
(Q3 - Q1) / median and the range (max - min) / median, and flags a
metric whose range misses a tenth of its median. It exits non-zero if
any run failed its oracle or any metric was flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LIMIT = 0.10


def run_once(workload, seed, seconds, trace):
    run_py = Path(__file__).resolve().parent / "run.py"
    done = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"seed {seed}: no output (exit {done.returncode})")
    result = json.loads(lines[-1])
    return done.returncode, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values, units, bad_runs = {}, {}, 0
    for k in range(args.runs):
        seed = args.first_seed + k
        code, result = run_once(args.workload, seed, args.seconds, args.trace)
        ok = code == 0 and result["correct"] and result["failed"] == 0
        bad_runs += not ok
        print(f"seed {seed}: exit {code}, correct {result['correct']}, "
              f"failed {result['failed']} of {result['attempted']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each")
    print(f"{'metric':36} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8}")
    flagged = 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        flag = rng > LIMIT
        flagged += flag
        print(f"{name:36} {units[name]:8} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{iqr:8.3f} {rng:8.3f}{'  MISSES 0.10' if flag else ''}")
    return 1 if bad_runs or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
