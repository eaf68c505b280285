#!/usr/bin/env python3
"""Steadiness check: runs a workload N times and reports each metric's spread.

    python3 perfbench/steady.py --workload update_mix --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --other ../parent

Every run lasts BENCHMARK.json's run_seconds.  Run i uses seed
--first-seed + i.  With --other (the root of a second checkout, such as
the parent commit), the two builds alternate, which side goes first
alternating too, on the same seeds.  For each end-to-end metric the
script prints the median, the quartiles of statistics.quantiles(n=4) and
the spread, (Q3 - Q1) / median, and flags it when the spread exceeds the
metric's bound in BENCHMARK.json.  With --other it also flags a metric
whose median got worse than the other side's by more than the bound.
Exits 1 when anything is flagged or a run fails, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("  run failed: %s (exit %d)" % (" ".join(command), done.returncode))
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def report(workload, metrics, samples, other):
    """Prints one table; returns the number of flagged metrics."""
    flagged = 0
    print("\n%s: %d runs" % (workload, len(next(iter(samples.values()), []))))
    header = "%-22s %12s %12s %12s %7s %6s" % ("metric", "median", "q1", "q3",
                                                 "spread", "bound")
    if other:
        header += " %12s %8s" % ("other_med", "worse")
    print(header)
    for m in metrics:
        name, bound = m["name"], m["bound"]
        values = samples.get(name, [])
        if len(values) < 2:
            print("%-22s  too few samples" % name)
            flagged += 1
            continue
        median, q1, q3, spread = summarize(values)
        flags = []
        if spread > bound:
            flags.append("SPREAD")
        line = "%-22s %12.5g %12.5g %12.5g %7.3f %6.2f" % (
            name, median, q1, q3, spread, bound)
        if other and len(other.get(name, [])) < 2:
            line += "  (too few runs on the other side)"
            flags.append("OTHER")
        elif other:
            other_median = summarize(other[name])[0]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (median - other_median) / other_median
            line += " %12.5g %+8.3f" % (other_median, worse)
            if worse > bound:
                flags.append("WORSE")
        if flags:
            flagged += 1
            line += "  <- " + ",".join(flags)
        print(line)
    return flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--other", help="root of a second checkout to alternate with")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = load_spec(ROOT)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    other_root = os.path.abspath(args.other) if args.other else None

    flagged = 0
    for workload in workloads:
        mine = {}
        theirs = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            sides = [(ROOT, mine)]
            if other_root:
                sides.append((other_root, theirs))
                if i % 2 == 1:
                    sides.reverse()
            for root, samples in sides:
                values = run_once(root, workload, seed, seconds)
                if values is None:
                    flagged += 1
                    continue
                for name, value in values.items():
                    samples.setdefault(name, []).append(value)
                print("  %s seed %d%s: %s" % (
                    workload, seed, " (other)" if samples is theirs else "",
                    " ".join("%s=%.4g" % (m["name"], values.get(m["name"], 0))
                             for m in metrics)), flush=True)
        flagged += report(workload, metrics, mine, theirs if other_root else None)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
