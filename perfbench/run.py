#!/usr/bin/env python3
"""Builds and runs the end-to-end LOCAT benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 30 --trace 0

The first run configures and builds a Release binary (the repository's
libraries from ../src plus the benchmark binary in this directory) under
$CARGO_TARGET_DIR, default .bench_build; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Every LOCAT_* variable is removed from the
environment first: the benchmark measures the program's shipped defaults.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tune-cold", "tune-baselines", "serve-drift")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "locat_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "locat_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOCAT_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
