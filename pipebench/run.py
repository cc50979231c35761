#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 pipebench/run.py --workload portal_fleet --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench)
under the checkout; its log goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero without a result when the build fails,
for example when the simulator sources are absent.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "pipebench")
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pipebench")


def run(cmd):
    """Runs a command to completion with its output on stderr; returns its code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        code = run(["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return None
    code = run(["cmake", "--build", out, "--target", "pipebench", "-j", BUILD_JOBS])
    if code != 0:
        return None
    return os.path.join(out, "pipebench")


def main():
    binary = build()
    if binary is None:
        print("pipebench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
