#!/usr/bin/env python3
"""Builds and runs the LRPC end-to-end benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Builds `perfbench/` (a cargo package of its own, in $CARGO_TARGET_DIR or
perfbench/target), reads the expected virtual figures from the
repository's BENCH_*.json artefacts, runs the workload in a process of
its own and passes its output through. The last line of standard output
is the result JSON; the exit code is non-zero if the build fails, an
artefact is missing, an output check fails or the printed metric names
differ from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load(name):
    path = os.path.join(ROOT, name)
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {name}: {e}")


def expectations():
    """Virtual figures the benchmark must reproduce, from the artefacts."""
    batch = load("BENCH_batch.json")["trajectory"][-1]
    ring16 = [p["virtual_ns_per_call"] for p in batch["points"] if p["batch"] == 16]
    full = {"seed": 42, "interfaces": 200, "bindings": 20000, "arrivals": 30000}
    tail = [
        e
        for e in load("BENCH_tail.json")["trajectory"]
        if e.get("cpus") == 4 and all(e["site"].get(k) == v for k, v in full.items())
    ]
    if not ring16 or not tail:
        fail("BENCH_batch.json or BENCH_tail.json lacks the reference entry")
    main_leg = tail[-1]["virtual"]["all"]
    return {
        "ring16_ns": ring16[0],
        "site_p50_ns": main_leg["p50"],
        "site_p99_ns": main_leg["p99"],
    }


def expected_names(trace):
    spec = load("BENCHMARK.json")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args()

    expect = expectations()
    names = expected_names(args.trace == "1")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench-trace"),
    ]
    cmd += [a for k, v in expect.items() for a in ("--expect", f"{k}={v}")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{args.workload} printed no result (exit {run.returncode})")
    if list(result["metrics"]) != names:
        fail(f"printed metrics {list(result['metrics'])} differ from BENCHMARK.json {names}")
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
