#!/usr/bin/env python3
"""Steadiness check: runs one workload once per seed and prints, for each
metric, the median, the quartiles and the spread (interquartile distance
over the median) against the metric's bound from BENCHMARK.json, plus the
host steal time of every run so a noisy run can be recognised.

    python3 perfbench/steady.py --workload NAME [--seeds 1,2,3,4,5]
                                [--seconds S] [--trace]

--trace adds one traced run per seed and reports the per-layer medians and
the tracing overhead (traced against untraced functions_per_s).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("run failed: workload %s seed %d" % (workload, seed))
    lines = out.stdout.splitlines()
    steal = 0.0
    for line in lines:
        m = re.match(r"# host steal time over the run: ([0-9.]+) s", line)
        if m:
            steal = float(m.group(1))
    return json.loads(lines[-1]), steal


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]

    results = []
    for seed in seeds:
        result, steal = run(args.workload, seed, seconds, False)
        results.append(result)
        print("seed %d: attempted %d failed %d steal %.2f s  %s" % (
            seed, result["attempted"], result["failed"], steal,
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())))
        sys.stdout.flush()
    print("\n%-22s %12s %12s %12s %8s %6s" % (
        "metric", "q1", "median", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, q2, q3, spread = summary(values)
        flag = "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"
        print("%-22s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
            m["name"], q1, q2, q3, spread, m["bound"], flag))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s" % sorted(shares))

    if args.trace:
        traced = [run(args.workload, seed, seconds, True)[0] for seed in seeds]
        print("\n%-28s %12s %8s" % ("per-layer metric", "median", "spread"))
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            q1, q2, q3, spread = summary(values)
            print("%-28s %12.6g %8.4f" % (m["name"], q2, spread))
        untraced = statistics.median(
            r["metrics"]["functions_per_s"]["value"] for r in results)
        with_trace = statistics.median(
            r["metrics"]["trace.functions_per_s"]["value"] for r in traced)
        print("tracing overhead: %.2f%% of functions_per_s"
              % (100.0 * (1.0 - with_trace / untraced)))


if __name__ == "__main__":
    main()
