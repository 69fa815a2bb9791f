#!/usr/bin/env python3
"""Builds and runs the DEW workspace benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary (this directory's Cargo package) is built from
source into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run
once per workload, each in its own process. Every line the binary
prints is passed through; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output was correct. See README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["table1_fifo", "explore_all", "stream_din_ckpt", "serve_open"]


def build():
    """Builds the benchmark binary and returns its path (exits on failure)."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr; stdout carries only results.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "dew-perfbench")


def run_workload(binary, workload, args):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        lines = lines[:-1]
    except (IndexError, ValueError):
        result = None
    for line in lines:
        print(line)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    worst = 0
    for name in names:
        code, result = run_workload(binary, name, args)
        if code != 0 or result is None:
            worst = code or 1
        if result is not None:
            results.append((name, result))
    if len(results) != len(names):
        # A run that printed no result leaves nothing to report.
        sys.exit(worst or 1)
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    sys.exit(worst)


if __name__ == "__main__":
    main()
