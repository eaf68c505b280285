#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark on tiny inputs
(--tiny) and checks that:
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) prints with its declared unit and a finite value, and the
    run is correct with no failed operation;
  * the traced run writes its spans to .bench_build/spans_<workload>.tsv;
  * the same seed gives identical exact counts (input digest, ops
    attempted, publishes by kind, index bytes);
  * a different seed changes the inputs.
It also checks that run.py exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and perfbench/.  Exits 0 when
everything holds, 1 otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"


def run(workload, seed, trace, root=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
               "--tiny"]
    return subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def exact_counts(stderr):
    for line in stderr.splitlines():
        if line.startswith("perfbench: exact "):
            return dict(kv.split("=") for kv in line.split()[2:])
    return None


class Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            self.failures += 1
        return ok


def check_result(c, done, declared, label):
    if not c.check(done.returncode == 0, "%s exits 0" % label):
        print(done.stderr[-2000:])
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    c.check(result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1,
            "%s correct, attempted %d, failed %d"
            % (label, result["attempted"], result["failed"]))
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        c.check(got is not None and got["unit"] == m["unit"]
                and isinstance(got["value"], (int, float))
                and math.isfinite(got["value"]),
                "%s %s = %s %s" % (label, m["name"],
                                   got["value"] if got else "missing", m["unit"]))
    c.check(set(metrics) == {m["name"] for m in declared},
            "%s prints exactly the declared metrics" % label)
    return result


def check_spans(c, path, name):
    """The traced run must write its spans, each with a known parent."""
    if not c.check(os.path.isfile(path), "%s traced run wrote %s" % (name, path)):
        return
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in f]
    ids = {row["id"] for row in rows}
    c.check(header == ["id", "parent", "request", "name", "thread", "start_ns",
                       "end_ns"]
            and len(rows) > 0
            and all(row["parent"] == "0" or row["parent"] in ids for row in rows)
            and all(int(row["end_ns"]) >= int(row["start_ns"]) for row in rows),
            "%s spans: %d rows, every parent recorded" % (name, len(rows)))


def check_bare_directory(c):
    """run.py must refuse to run without the library sources."""
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("point_reads", 1, 0, root=bare)
    c.check(done.returncode != 0 and not done.stdout.strip(),
            "bare directory: exit %d, no result printed" % done.returncode)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    c = Checker()
    for w in spec["workloads"]:
        name = w["name"]
        first = run(name, 7, 0)
        check_result(c, first, spec["end_to_end"], "%s untraced" % name)
        again = run(name, 7, 0)
        other = run(name, 8, 0)
        a, b, o = (exact_counts(d.stderr) for d in (first, again, other))
        if c.check(a is not None and b is not None and o is not None,
                   "%s prints exact counts" % name):
            c.check(a == b, "%s same seed, same exact counts: %s" % (name, a))
            c.check(a["input_digest_low32"] != o["input_digest_low32"],
                    "%s other seed, other inputs" % name)
        spans = os.path.join(ROOT, ".bench_build", "spans_%s.tsv" % name)
        if os.path.exists(spans):
            os.remove(spans)
        traced = run(name, 7, 1)
        check_result(c, traced, spec["per_layer"], "%s traced" % name)
        check_spans(c, spans, name)
    check_bare_directory(c)
    print("\n%d check(s) failed" % c.failures if c.failures else "\nall checks passed")
    sys.exit(1 if c.failures else 0)


if __name__ == "__main__":
    main()
