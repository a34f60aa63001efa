#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one
workload of the cluert benchmark.

    python3 perfbench/run.py --workload mem_hot --seed 1 --seconds 10 --trace 0

Build output goes to .bench_build/perfbench at the checkout root. Build logs
go to stderr; the benchmark's own report goes to stdout, ending with one
JSON line (see perfbench/README.md).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wire_loopback", "mem_hot", "mem_churn")
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-1 over every source file the binary is built from.

    Stands in for a commit id when the checkout is not a git repository.
    """
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ tree next to perfbench/; nothing to build",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-sha", git_sha(),
           "--source-sha1", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
