#!/usr/bin/env python3
"""Builds the ghum simulator benchmark and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

The benchmark package (this directory) is configured and built under
.bench_build/perfbench with CMake, compiling the simulator library from
../src. The last line of standard output is the benchmark's JSON result;
build output goes to standard error. See README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_grid", "fullscale_sweep", "fleet_storm")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ghum_perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "ghum_perfbench")


def revision():
    """The checkout's git revision, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    trace_out = os.path.join(
        build_dir, "trace_%s_seed%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--revision", revision()]
    try:
        # The binary prints the result as its last line; stdout is inherited.
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
