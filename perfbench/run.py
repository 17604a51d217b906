#!/usr/bin/env python3
"""Build and run the BlobSeer end-to-end benchmark.

    python3 perfbench/run.py --workload vm-boot --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the daemon and the benchmark program
from the checkout's sources into $CARGO_TARGET_DIR (default .bench_build),
then runs one workload and relays the program's output; the last line of
standard output is the JSON result. Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vm-boot", "bulk-rw", "small-append")


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/core/client.hpp", "tools/blobseer_serverd.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")

    out = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build_dir = os.path.join(out, "perfbench")
    try:
        build(build_dir)
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")

    workdir = os.path.join(out, f"run-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serverd", os.path.join(build_dir, "blobseer_serverd"),
           "--workdir", workdir]
    try:
        rc = subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        rc = 3
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
