#!/usr/bin/env python3
"""Builds and runs the repository benchmark (qbench) from a checkout.

Usage, from the checkout root:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark compiles the qmatch library from ./src and the driver from
perfbench/src into $CARGO_TARGET_DIR (default .bench_build), then runs one
workload in its own process. Build output goes to stderr; the last line of
stdout is the result object.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(out_dir):
    """Configures and builds qbench; returns the binary path or None."""
    os.makedirs(out_dir, exist_ok=True)
    cmake_dir = os.path.join(out_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "qbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
    binary = os.path.join(cmake_dir, "qbench")
    return binary if os.path.exists(binary) else None


def main():
    for needed in ("src/CMakeLists.txt", "data/schemas", "data/expected"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("qbench: %s is missing; run from a full checkout" % needed,
                  file=sys.stderr)
            return 2
    binary = build(build_dir())
    if binary is None:
        print("qbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "--root", ROOT] + sys.argv[1:]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
