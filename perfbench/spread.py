#!/usr/bin/env python3
"""Runs workloads over several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads serve --seeds 1-5

Runs are untraced (--trace 0): the end-to-end metrics are the ones with
bounds. For every workload and metric it prints the median over the seeds
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json and a third of it (the steadiness
target). Every run must report correct=true and failed=0, and every spread
must be within its bound; otherwise the exit code is 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("a spread needs at least 2 seeds")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    ok = True
    for workload in workloads:
        values = {}
        walls = []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            start = time.time()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.time() - start)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if (done.returncode != 0 or not result.get("correct")
                    or result.get("failed") != 0):
                ok = False
                print("%s seed %d: FAILED (exit %d)\n%s%s" % (
                    workload, seed, done.returncode, done.stdout,
                    done.stderr[-2000:]))
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: %d runs, wall %.1f-%.1f s" % (
            workload, len(walls), min(walls), max(walls)))
        for name, vals in values.items():
            if len(vals) < 2:  # the failed runs are reported above
                continue
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
            print("  %-24s median %14.6g  spread %6.3f  bound %.3f "
                  "(1/3: %.3f)  %s" % (name, median, spread, bound,
                                       bound / 3, flag))
            print("      " + " ".join("%.4g" % v for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
