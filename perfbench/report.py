#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one report.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed N] [--seconds S]

Each run is a separate ``run.py`` process, one after another. The report
prints every end-to-end metric with its unit and sample count, the error
rate and output digest of each workload, the per-layer metrics of the
traced runs, and the tracing overhead: how much the traced run's
throughput falls below the untraced run's.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["factor", "closure", "derive"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1]), proc.stderr


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()

    traced = {}
    throughput = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result, stderr = run(workload, args.seed, args.seconds, trace)
            print(f"== {workload}, trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            print("\n".join(line for line in lines if not line.startswith("# env")))
            if stderr.strip():
                print(stderr.rstrip())
            metrics = result["metrics"]
            if trace:
                traced[workload] = metrics
            else:
                throughput[workload] = metrics["throughput_ops_s"]["value"]
            print()

    print("== tracing overhead (untraced throughput / traced throughput - 1)")
    for workload in WORKLOADS:
        slow = traced[workload]["trace.throughput_ops_s"]["value"]
        print(f"{workload:8s} {throughput[workload]:10.3f} ops/s untraced, {slow:10.3f} traced: "
              f"{(throughput[workload] / slow - 1) * 100:6.1f}%")
    print()
    print("== calls per op that separate the layers")
    for workload in WORKLOADS:
        m = traced[workload]
        print(f"{workload:8s} exact_linalg.inv.calls {m['exact_linalg.inv.calls']['value']:12.3f}   "
              f"duclosure.applicable.calls {m['duclosure.applicable.calls']['value']:12.3f}")


if __name__ == "__main__":
    main()
