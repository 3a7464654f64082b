#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload nl_serial --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout. The script builds the harness (and the
regel library from src/) into .bench_build/, trains the parsers once per
build, runs the workload, prints the harness's report and every measured
metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json declares (--trace 0) or its
per-layer metrics (--trace 1). --save FILE also appends the full result
(every metric, traffic properties, problems) to FILE as one JSON line, the
input of perfbench/compare.py.

Exits non-zero without a result line when the build, the training or the
run fails, or when the run misses a declared metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "regel_perfbench")
WEIGHTS = os.path.join(BUILD, "weights")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "regel_perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def ensure_weights():
    """Trains the parsers unless weights from this very binary exist."""
    st = os.stat(BINARY)
    stamp = "%d %d\n" % (st.st_size, st.st_mtime_ns)
    stamp_file = os.path.join(WEIGHTS, "built-by")
    try:
        with open(stamp_file) as f:
            if f.read() == stamp:
                return
    except OSError:
        pass
    os.makedirs(WEIGHTS, exist_ok=True)
    proc = subprocess.run([BINARY, "train", "--weights", WEIGHTS],
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode:
        fail("parser training failed")
    with open(stamp_file, "w") as f:
        f.write(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append the full result to this JSONL file")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    ensure_weights()
    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--weights", WEIGHTS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode or not lines:
        fail("run failed with exit code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        full = json.loads(lines[-1])
    except ValueError:
        fail("run printed no result")

    print("metrics (all measured; * = declared for this mode):")
    names = {m["name"] for m in declared}
    for name, m in sorted(full["metrics"].items()):
        value = "n/a" if m["value"] is None else "%.6g" % m["value"]
        print("  %s %-36s %16s %s" % ("*" if name in names else " ", name,
                                      value, m["unit"]))
    print("traffic: " + ", ".join("%s=%g" % kv
                                  for kv in sorted(full["traffic"].items())))
    for problem in full["problems"]:
        print("PROBLEM: " + problem)

    metrics = {}
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            fail("run did not measure %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
