#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver is built from source (Release,
the repository's default options) into .bench_build/perfbench, then run in
its own process; its scratch files go under .bench_build and are removed
afterwards. The last line printed is the result object; the line before it
is a diagnostic (host-speed probe, sample counts) that is not a metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("table4_sweep", "portfolio64_spool", "advisor_stream")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
TIME_LIMIT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", "4"],
        check=True, stdout=sys.stderr)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    golden = os.path.join("tests", "golden", "fingerprints.json")
    for needed in ("BENCHMARK.json", os.path.join("src", "CMakeLists.txt"),
                   golden):
        if not os.path.exists(needed):
            fail("run from the root of a repository checkout (missing %s)"
                 % needed)
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    scratch = os.path.join(".bench_build", "scratch-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_driver"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--golden", golden, "--scratch", scratch],
            stdout=subprocess.PIPE, text=True,
            timeout=max(10.0, TIME_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != want:
        fail("driver result does not match BENCHMARK.json: %s" % lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
