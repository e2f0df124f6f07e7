#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Builds perfbench/sdbench from this checkout's sources into .bench_build/
(incremental after the first run), generates or reuses the seeded inputs
of (W, N) in a separate process, then measures. The last stdout line is
the measuring process's result object; build and generation logs go to
stderr. Exits non-zero, printing no result, when the sources are missing
or any step fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "sdbench")
WORKLOADS = ("corpus_batch", "update_revet", "serve_open", "steal_batch")


def step(argv):
    """Runs a preparation step with its stdout folded into stderr."""
    return subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources under src/", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        code = step(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        if code != 0:
            return code
    jobs = str(os.cpu_count() or 1)
    return step(["cmake", "--build", CMAKE_DIR, "--target", "sdbench",
                 "-j", jobs])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    code = build()
    if code != 0:
        return code or 2
    data = os.path.join(BUILD, "data")
    code = step([BINARY, "gen", "--workload", args.workload,
                 "--seed", str(args.seed), "--data", data])
    if code != 0:
        return code
    scratch = os.path.join(BUILD, "scratch", args.workload)
    return subprocess.run([BINARY, "run", "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--data", data, "--scratch", scratch]).returncode


if __name__ == "__main__":
    sys.exit(main())
