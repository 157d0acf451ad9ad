#!/usr/bin/env python3
"""Smoke self-check of the benchmark: runs every workload briefly, untraced
and traced, and fails fast when the benchmark itself is broken.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. For every workload it asserts that both
runs exit 0 with correct=true and no failed operations, that every metric
BENCHMARK.json names is present with its unit and a finite value, that the
traced run's final-state digest equals the untraced run's, and that the
span file parses with named, parented spans of one run id per repetition.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
SECONDS = 1  # each run still does its warm-up and three repetitions


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_result(lines, expected):
    problems = []
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append("attempted %r failed %r"
                        % (result["attempted"], result["failed"]))
    for name, unit in expected.items():
        entry = result["metrics"].get(name)
        if entry is None:
            problems.append("metric %s missing" % name)
        elif entry["unit"] != unit:
            problems.append("metric %s unit %r != %r"
                            % (name, entry["unit"], unit))
        elif not (isinstance(entry["value"], (int, float))
                  and math.isfinite(entry["value"])):
            problems.append("metric %s value %r" % (name, entry["value"]))
    return problems


def check_trace(path, workload):
    problems = []
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        return ["trace file %s holds no spans" % path]
    names = set()
    for i, e in enumerate(events):
        args = e.get("args", {})
        if args.get("id") != i or not isinstance(args.get("parent"), int) \
                or not args.get("run") or e.get("dur", -1) < 0:
            problems.append("malformed span %r" % e)
            break
        parent = args["parent"]
        if parent >= 0 and events[parent]["args"]["run"] != args["run"]:
            problems.append("span %d and its parent are in different runs" % i)
            break
        names.add(e["name"])
    if workload == "farm_sweep":
        driver = {"ScenarioService::submit", "drain", "slice"}
    else:
        driver = {"initialize", "step"}
    missing = (driver | {"rep", "probe"}) - names
    if missing:
        problems.append("trace lacks spans %s" % sorted(missing))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        before = failures
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = run(workload, SEED, SECONDS, trace)
            problems = [] if code == 0 and lines else \
                ["exit code %d; stderr tail:\n%s" % (code, err[-2000:])]
            if not problems:
                units = {m["name"]: m["unit"] for m in spec[key]}
                problems = check_result(lines, units)
                digests[trace] = next((l.split()[3] for l in lines
                                       if l.startswith("digest ")), None)
            if trace == 1 and not problems:
                problems = check_trace(os.path.join(
                    ROOT, ".bench_build", "traces",
                    "%s-seed%d.json" % (workload, SEED)), workload)
            for p in problems:
                print("FAIL %s trace=%d: %s" % (workload, trace, p))
            failures += len(problems)
        if len(digests) == 2 and (digests[0] is None
                                  or digests[0] != digests[1]):
            print("FAIL %s: traced digest %s != untraced %s"
                  % (workload, digests[1], digests[0]))
            failures += 1
        print("%s %s (digest %s)" % ("ok  " if failures == before else "FAIL",
                                     workload, digests.get(0)), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
