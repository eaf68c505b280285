#!/usr/bin/env python3
"""Builds the end-to-end benchmark binary from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository.  The first call
configures and compiles perfbench/ (which compiles the library from
src/) into .bench_build/ at the checkout root; later calls only run the
incremental build.  Build output goes to stderr.  The binary's last
stdout line, one JSON object with the keys correct, attempted, failed and
metrics, is checked against the metric names BENCHMARK.json declares and
printed as this script's last stdout line.  With --trace 1 the binary
also writes every span to .bench_build/spans_<workload>.tsv.

Exit codes: 0 on a correct run, 1 when the binary saw a wrong answer or a
failed update, 2 on bad arguments or a checkout without the library
sources, 3 when the build fails or the binary's output breaks the
contract.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "trel_e2e_bench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the benchmark binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no library sources under %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail(3, "cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "trel_e2e_bench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(3, "build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail(3, "build failed: " + " ".join(step))


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(3, "last output line is not JSON: %r" % line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(3, "result keys are %s" % sorted(result))
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(3, "metric %s has no finite value" % name)
        if not metric.get("unit"):
            fail(3, "metric %s has no unit" % name)
    want = declared_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        fail(3, "metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny graphs and op counts (self-test only)")
    args = parser.parse_args()
    if args.seed < 0:
        fail(2, "--seed must be >= 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    # The traced run writes its spans to spans_<workload>.tsv in its
    # working directory, here .bench_build/.
    try:
        done = subprocess.run(command, cwd=BUILD_DIR, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "benchmark binary timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(done.returncode if done.returncode == 2 else 3,
             "benchmark binary exited with code %d" % done.returncode)
    result = check_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"] or result["failed"] != 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
