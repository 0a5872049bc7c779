#!/usr/bin/env python3
"""Session benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a jinfer checkout. Builds perfbench/ (and through it
the library from the checkout's own sources) into $CARGO_TARGET_DIR or
.bench_build, runs the arithmetic self-test, then runs one workload. The
workload binary's standard output is passed through unchanged; its last
line is the JSON result. Build logs go to standard error. Per-run outputs
(manifest, metrics, registry deltas, trace spans) land in .bench_out/.

Exit status is the workload's: 0 when every transcript matched its
baseline and every workload-character check held, non-zero otherwise. A
failed build or self-test exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("remote_warm", "remote_cold", "inproc_light", "inproc_compute")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout) and returns its code."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out after {timeout}s: {cmd[0]}", file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_dir = os.path.join(root, "perfbench")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", bench_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            print("run.py: configure failed", file=sys.stderr)
            return 1
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run(["cmake", "--build", build_dir, "-j", jobs],
               BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if run([os.path.join(build_dir, "perfbench_selftest")], 60,
           stdout=sys.stderr) != 0:
        print("run.py: benchmark self-test failed", file=sys.stderr)
        return 1

    return run([os.path.join(build_dir, "session_bench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", os.path.join(root, ".bench_out")],
               RUN_TIMEOUT_S, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
