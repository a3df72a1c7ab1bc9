#!/usr/bin/env python3
"""Builds and runs the DLACEP end-to-end benchmark.

    python3 dlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 dlbench/run.py --selftest

Run from the repository root. The first call configures and builds the
DLACEP libraries and the benchmark (Release) under .bench_build/dlbench;
later calls rebuild incrementally. The benchmark binary prints progress
lines, an info line (seed, nproc, build type) and, last, the result
object {"correct", "attempted", "failed", "metrics"}. This script checks
that object against BENCHMARK.json (metric names and units for the
trace mode, workload name) before printing it, and exits non-zero
without a result when the build, the run or that check fails.

With --trace 1 the spans of the traced repetitions are written to
.bench_build/dlbench/trace_<workload>_<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dlbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Returns a list of problems with a result object (empty = valid)."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        got = set(metrics) if isinstance(metrics, dict) else set()
        problems.append("metrics missing %s, unexpected %s" % (
            sorted(set(expected) - got), sorted(got - set(expected))))
        return problems
    for name, unit in expected.items():
        entry = metrics[name]
        if set(entry) != {"value", "unit"}:
            problems.append(name + " has keys %s" % sorted(entry))
        elif entry["unit"] != unit:
            problems.append("%s unit %s != %s" % (name, entry["unit"], unit))
        elif not isinstance(entry["value"], (int, float)) \
                or isinstance(entry["value"], bool):
            problems.append(name + " value is not a number")
    return problems


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def selftest():
    if not build(["dlbench", "dlbench_selftest"]):
        return 1
    done = subprocess.run([os.path.join(BUILD, "dlbench_selftest")])
    if done.returncode != 0:
        return done.returncode
    done = subprocess.run([sys.executable, "-m", "unittest", "discover",
                           "-s", os.path.join(HERE, "tests"), "-v"])
    return done.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")

    started = time.monotonic()
    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        log("cannot read BENCHMARK.json: %s" % err)
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload " + args.workload)
        return 2
    if not build(["dlbench"]):
        return 1

    command = [os.path.join(BUILD, "dlbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace_out", os.path.join(
            BUILD, "trace_%s_%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log("benchmark exited with %d" % done.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    problems = check_result(result, spec, args.trace)
    for line in lines[:-1]:
        print(line)
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    print(json.dumps({"info": {"commit": commit(),
                               "total_s": time.monotonic() - started}}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
