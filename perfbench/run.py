#!/usr/bin/env python3
"""Build and run the NEBULA simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <ann_dense|snn_events|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs one workload in one process with the
simulator's tuning variables cleared (the benchmark pins the worker pool
per workload itself). The last line of standard output is the result
JSON. Exits non-zero, without a result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Variables that change how the simulator runs.
TUNING_VARS = ("NEBULA_THREADS", "NEBULA_KERNEL_PATH", "NEBULA_MULTICHIP_DEPTH")
RUN_TIMEOUT_S = 170


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return done.returncode == 0


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    try:
        built = build(env)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    for var in TUNING_VARS:
        env.pop(var, None)
    binary = os.path.join(target, "release", "nebula-perfbench")
    try:
        done = subprocess.run(
            [binary, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=RUN_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {done.returncode}", file=sys.stderr)
        return done.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
