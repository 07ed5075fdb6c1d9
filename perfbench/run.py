#!/usr/bin/env python3
"""Build bagsched from source and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
sched_server and the load generator in .bench_build/ (Release); later runs
only let CMake confirm they are current. The load generator's report goes
to stdout and its last line is the JSON result. Exit code 0 only when the
build succeeded and every answer the load generator checked was correct.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("wire-small", "eptas-cache", "session-journal")
# A run must end within 180 s; this bounds the load generator, which runs
# for less than a minute.
RUN_DEADLINE_S = 170


def build(root, build_dir):
    log = sys.stderr
    subprocess.run(
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "sched_server",
         "perfbench_loadgen", "-j", str(os.cpu_count() or 1)],
        check=True, stdout=log, stderr=log)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [
        os.path.join(build_dir, "perfbench_loadgen"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--server", os.path.join(build_dir, "bagsched", "sched_server"),
        "--workdir", os.path.join(build_dir, "work-" + args.workload),
    ]
    try:
        return subprocess.run(command, timeout=RUN_DEADLINE_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the load generator did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
