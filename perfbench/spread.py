#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload oms_period --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 11-20

For each metric it prints the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median.  End-to-end metrics are flagged when the
spread exceeds a third of their bound in BENCHMARK.json.  Run from the
root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance over the median (0 when the median is 0)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, out.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        runs = [run_once(workload, s, bench["run_seconds"])
                for s in parse_seeds(args.seeds)]
        bad = [i for i, r in enumerate(runs) if not r["correct"] or r["failed"]]
        print("%s: %d runs, %d incorrect or with failures" % (workload, len(runs), len(bad)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound and s > bound / 3:
                flag = "  > bound/3"
                steady = False
            print("  %-36s median %-14.6g spread %6.3f%s" % (
                name, statistics.median(values), s, flag))
            print("      " + " ".join("%.5g" % v for v in values))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
