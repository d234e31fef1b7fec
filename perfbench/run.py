#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The benchmark and the library are
built from source (CMake, Release) into .bench_build, or into
$CARGO_TARGET_DIR when set; an up-to-date build is a no-op. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
--all runs every workload in turn and ends with a table of every metric.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["gate_small_tcp", "sweep_bulk_tcp", "program_churn",
             "micromag_validate"]


def build(root):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_all(binary, args):
    rows = []
    for workload in WORKLOADS:
        out = subprocess.run([binary, "--workload", workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(out.stdout)
        rows.append((workload, json.loads(out.stdout.strip().splitlines()[-1])))
    print("\n%-20s %-30s %18s  %s" % ("workload", "metric", "value", "unit"))
    ok = True
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print("%-20s %-30s %18.6g  %s" % (workload, name, metric["value"],
                                              metric["unit"]))
        print("%-20s attempted %d, failed %d, correct %s" % (
            workload, result["attempted"], result["failed"],
            result["correct"]))
        ok = ok and result["correct"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.all or args.workload):
        parser.error("one of --workload, --all or --smoke is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.smoke:
        return subprocess.run([binary, "--smoke"]).returncode
    if args.all:
        return run_all(binary, args)
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
