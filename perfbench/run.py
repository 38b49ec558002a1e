#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build lives in .bench_build/perfbench
(configured once, rebuilt incrementally). The last line of standard output
is one JSON object: correct, attempted, failed and metrics -- every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1. A per-layer metric of a layer the workload bypasses (see
BYPASSED) reads 0; any other metric the workload does not report is an
error. The line before the result reports the host steal time over the
run, read from /proc/stat.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# Per-layer metrics each workload cannot measure because it does not run
# that layer (or, for the service, because the response does not carry the
# figure); they read 0.
SERVICE = ["protocol.encode_us", "protocol.decode_us", "protocol.request_kb",
           "protocol.response_kb", "server.compute_ms", "service.overhead_ms",
           "router.shards_per_request"]
BYPASSED = {
    # No cache, no edits, no service.
    "cold_module": ["cache.restore_ms", "cache.recompile_ms", "cache.hits",
                    "cache.misses", "cache.stores", "cache.hit_ratio",
                    "cache.kb_per_function", "graph.recompiled_per_edit"]
                   + SERVICE,
    # One machine (default), no service.
    "warm_edit": ["dfa.us_per_visit.large"] + SERVICE,
    # No edits and no recompiles; the response's merged pass stats carry
    # pass seconds (reported) but no DFA iterations or visits.
    "service_routed": ["dfa.iterations", "dfa.instruction_visits",
                       "dfa.nonconverged", "dfa.us_per_visit.default",
                       "dfa.us_per_visit.large", "cache.recompile_ms",
                       "graph.recompiled_per_edit"],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    # The program is built from the repository sources next to the
    # benchmark; without them there is nothing to measure.
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at the checkout root; nothing to build" % needed)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")


def steal_seconds():
    """Host steal time summed over all CPUs, in seconds."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="",
                        help="write the traced run's spans here (JSON lines)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, workloads))

    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test"]).returncode)

    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.relpath(work, os.getcwd())]
    if args.trace and args.trace_out:
        command += ["--trace-out", args.trace_out]
    steal0 = steal_seconds()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal = steal_seconds() - steal0
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with %d" % run.returncode)
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace or m["name"] not in BYPASSED[args.workload]:
                fail("workload %s reported no %s" % (args.workload, m["name"]))
            got = {"value": 0, "unit": m["unit"]}
        elif args.trace and m["name"] in BYPASSED[args.workload]:
            fail("workload %s reported %s, listed as bypassed"
                 % (args.workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, declared in %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result["metrics"] = metrics

    for line in lines[:-1]:
        print(line)
    print("# host steal time over the run: %.2f s" % steal)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
