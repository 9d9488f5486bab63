#!/usr/bin/env python3
r"""Run one PDNspot benchmark workload, building the harness first.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The harness (perfbench/harness, built with perfbench/CMakeLists.txt
together with the library sources in src/) is configured and built
in Release mode under $CARGO_TARGET_DIR when set, else .bench_build:
from scratch on the first run, incrementally after that. The last
line of standard output is the harness's JSON result; build output
goes to standard error. Exit status is non-zero, with no result
line, when the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign-pmu", "design-sweep", "fleet-mixed",
             "archive-query"]
RUN_TIMEOUT_S = 170


def threads():
    """Pool width of every multi-threaded workload: at most 4, never
    more than the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def build(build_dir):
    """Configure and build the harness (a no-op once up to date);
    returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target",
             "pdnspot_perfbench", "-j", str(threads())],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pdnspot_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    env = dict(os.environ, PDNSPOT_THREADS=str(threads()))
    name = "selftest" if args.selftest else "%s-%d-%d" % (
        args.workload, args.seed, os.getpid())
    work_dir = os.path.join(build_dir, "runs", name)
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--work-dir", work_dir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace",
                str(args.trace)]
    try:
        status = subprocess.run(cmd, env=env,
                                timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        status = 1
    # Keep the latest trace-event file of each workload.
    if args.trace and status == 0:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        src = os.path.join(work_dir, "trace-%s-%d.json" % (
            args.workload, args.seed))
        if os.path.exists(src):
            shutil.move(src, os.path.join(
                traces, "trace-%s.json" % args.workload))
    shutil.rmtree(work_dir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
