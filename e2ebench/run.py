#!/usr/bin/env python3
"""Builds and runs the end-to-end GATW serving benchmark.

    python3 e2ebench/run.py --workload paper_read --seed 1 --seconds 15 --trace 0

Run from the repository root. The benchmark is its own CMake package
(e2ebench/CMakeLists.txt) compiled from the repository's sources into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) on first use.
--trace 0 runs gatw_bench and reports end-to-end metrics; --trace 1 runs
gatw_bench_traced and reports per-layer metrics. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_read", "live_rw", "mmap_cache")
RUN_TIMEOUT_S = 175


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", "4"],
        stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target_dir, "e2ebench"))
    target = "gatw_bench_traced" if args.trace else "gatw_bench"
    if not build(build_dir, target):
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, target),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
