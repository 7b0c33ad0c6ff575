#!/usr/bin/env python3
"""Build and run the rFaaS benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
links the workspace crates by path. This script builds it in release mode
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload, and relays
the program's output. The last line of standard output is the result: one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is the program's: 0 when every reply and every check held.

Traced runs (--trace 1) also write their spans as JSON lines to
<target dir>/perfbench-traces/<workload>-seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_small", "scatter_gather", "lease_churn", "state_rw")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(os.getcwd(), target)


def build(target):
    crates = os.path.join(ROOT, "crates", "rfaas", "Cargo.toml")
    if not os.path.isfile(crates):
        fail(f"the rFaaS crates are missing (no {crates}); run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr so that stdout stays the result.
        done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target, "release", "rfaas-perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    args = parse_args()
    target = target_dir()
    binary = build(target)
    trace_file = os.path.join(
        target, "perfbench-traces", f"{args.workload}-seed{args.seed}.jsonl"
    )
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--trace-file", trace_file,
    ]
    try:
        # subprocess.run kills and reaps the child if it overruns.
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = lines[-1] if lines else ""
    try:
        parsed = json.loads(result)
        assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail(f"no result line (exit code {done.returncode})", 3)
    print(result)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
