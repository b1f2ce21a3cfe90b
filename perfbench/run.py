#!/usr/bin/env python3
"""Builds the perfbench binary from source, then runs one benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-26 --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; build output goes to standard error. All arguments are passed to
the binary, whose last line of standard output is the JSON result. A failed
build exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    source_dir = os.path.dirname(os.path.abspath(__file__))

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return 1
    build = ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        return 1

    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_root, "perfbench-work")
    sys.stdout.flush()
    run = [binary, *sys.argv[1:], "--work-dir", work_dir]
    return subprocess.run(run).returncode


if __name__ == "__main__":
    sys.exit(main())
