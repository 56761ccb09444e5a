#!/usr/bin/env python3
"""Builds the SPAL benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary and the library are compiled by perfbench/CMakeLists.txt
into .bench_build/perfbench (build output goes to stderr). The binary's
stdout passes through unchanged; its last line is the JSON result. With
--trace 1 the recorded spans are written to
.bench_build/perfbench/spans/<workload>-seed<n>.json. The exit code is the
binary's, or 1 when the build fails.
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description="Build and run the SPAL benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "spal_perfbench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1" and re.fullmatch(r"[A-Za-z0-9_.-]+", args.workload + args.seed):
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.json" % (args.workload, args.seed)
        command += ["--spans", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
