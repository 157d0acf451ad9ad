#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: one run per seed, then per workload and metric the median,
the quartiles (statistics.quantiles, n=4) and the interquartile distance
as a share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--first-seed 1] [--json out.json]

Runs ten seeds from --first-seed on every workload of BENCHMARK.json at
its run_seconds, the workloads in turn for each seed. Run from the root
of a checkout. Exits non-zero when a run fails or a spread (other than
setup_s's) exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10  # runs per workload, as the acceptance rule takes them


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, out.returncode))
    digest = next((l for l in lines if l.startswith("digest ")), "")
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write the raw values here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    raw = {w: {name: [] for name in bounds} for w in workloads}
    # Seeds outermost: a slow spell of a shared host then lands on every
    # workload rather than on one workload's whole set.
    for seed in range(args.first_seed, args.first_seed + SEEDS):
        for workload in workloads:
            result, digest = run_once(workload, seed, spec["run_seconds"])
            print("%-13s seed %3d  %s" % (workload, seed, digest), flush=True)
            for name in bounds:
                raw[workload][name].append(result["metrics"][name]["value"])
    steady = True
    print("%-13s %-19s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload, values in raw.items():
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread <= bounds[name] / 3.0
            steady = steady and ok
            print("%-13s %-19s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s" % (
                workload, name, med, q1, q3, 100 * spread, 100 * bounds[name],
                "" if ok else "  <-- above bound/3"), flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
