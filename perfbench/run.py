#!/usr/bin/env python3
"""Builds the commit benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload commit-dec8 --seed 7 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. The benchmark's report ends with one JSON line; --trace 1
also writes the recorded spans to <build dir>/spans/<workload>.jsonl.
Workloads and metrics are described in BENCHMARK.json and
perfbench/design.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 150


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    bench_build = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bench_build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", bench_build, "--target", "nbcp_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(bench_build, "nbcp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--protocol",
                        help="replace the workload's protocol (sensitivity "
                             "control only)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans",
                    os.path.join(spans_dir, args.workload + ".jsonl")]
    if args.protocol:
        command += ["--protocol", args.protocol]
    done = subprocess.run(command, cwd=ROOT,
                          timeout=args.seconds + RUN_SLACK_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
