#!/usr/bin/env python3
"""Steadiness check: run BENCHMARK.json's command ten times per workload,
each time with another --seed, and print for each end-to-end metric the
distance between the first and third quartile of the ten values as a
share of their median, next to the metric's bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W ...] [--values]

Run from the repository root. Exits non-zero if an op failed or a spread
(other than setup_s's) exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
parser.add_argument("--values", action="store_true", help="also print the ten values")
args = parser.parse_args()

with open("BENCHMARK.json") as f:
    bench = json.load(f)
workloads = args.workload or [w["name"] for w in bench["workloads"]]
ok = True
for workload in workloads:
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            ok = False
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= m["bound"] / 3 else "wide" if spread <= m["bound"] else "OVER"
        if verdict == "OVER" and m["name"] != "setup_s":
            ok = False
        print(f"{workload} {m['name']} median {median:.6g} {m['unit']} "
              f"iqr/median {spread:.4f} bound {m['bound']} {verdict}", flush=True)
        if args.values:
            print("   ", " ".join(f"{x:.5g}" for x in v), flush=True)
sys.exit(0 if ok else 1)
