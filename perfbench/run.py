#!/usr/bin/env python3
"""Repository benchmark: build hacc_bench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
                             --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and hacc_bench into .bench_build/ (later runs only check
that the build is current). hacc_bench's progress goes to stderr; stdout
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (and the spans are written to
.bench_build/traces/). The exit code is non-zero when a correctness gate
failed, the build failed, or the output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hacc_bench")
WORKLOADS = ("hydro_box", "clustered_lb", "farm_sweep")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then bring hacc_bench up to date. Output -> stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, usable_cpus())))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr):
            return False
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "hacc_bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr) == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with the shape of hacc_bench's result (empty = valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metrics differ from BENCHMARK.json: "
                        "missing %s, extra %s"
                        % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want))))
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append("%s: unit %r, expected %r"
                            % (name, entry.get("unit"), unit))
        if not isinstance(entry.get("value"), (int, float)):
            problems.append("%s: value %r is not a number"
                            % (name, entry.get("value")))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("run.py: build failed")
        return 1

    tag = "%s-seed%d-trace%d-pid%d" % (args.workload, args.seed, args.trace,
                                       os.getpid())
    workdir = os.path.join(BUILD, "work", tag)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(
        traces, "%s-seed%d.json" % (args.workload, args.seed))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--trace-file", trace_file]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: %s did not finish within %d s"
            % (args.workload, RUN_TIMEOUT_S))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: hacc_bench printed no result (exit code %d)"
            % proc.returncode)
        return 1
    problems = validate(result, args.trace == 1)
    if problems:
        for p in problems:
            log("run.py: " + p)
        return 1
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
