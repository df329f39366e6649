#!/usr/bin/env python3
"""Repeatability check for the benchmark, as its acceptance rule states it.

Runs the command in BENCHMARK.json ten times per workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of the ten values as a share of their median,
beside the metric's bound. Run from the repository root:

    python3 crates/perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("workloads", nargs="*")
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
names = args.workloads or [w["name"] for w in bench["workloads"]]
worst = 0.0
for workload in names:
    values = {name: [] for name in bounds}
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect: {result}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    per_run = (time.time() - started) / args.runs
    print(f"{workload}  ({per_run:.1f} s per run)")
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        median = statistics.median(xs)
        spread = (q3 - q1) / median
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"  {name:<22} median {median:<14.6g} spread {spread:7.4f}  "
              f"bound {bounds[name]:.2f}  spread/bound {share:5.2f}")
print(f"worst spread/bound (setup_s excluded): {worst:.2f}  (aim: below 0.33)")
