#!/usr/bin/env python3
"""Runs one workload over several seeds and prints, per metric, the
median and the quartile spread (Q3 - Q1) / median, the figure the
benchmark's bounds are checked against.

    python3 e2ebench/spread.py --workload serve_long --seeds 1-10 [--seconds 10] [--bin PATH]

Without --bin it runs the benchmark through cargo from the repository
root, as BENCHMARK.json does."""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    args = ap.parse_args()
    if args.bin:
        cmd = [args.bin]
    else:
        cmd = ["cargo", "run", "--release", "--quiet", "--offline",
               "--manifest-path", "e2ebench/Cargo.toml", "--"]
    values = {}
    for seed in seeds(args.seeds):
        run = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs failed their checks\n{run.stderr}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    print(f"\n{'metric':<32} {'median':>14} {'spread':>9}")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{k:<32} {med:>14.6g} {spread:>9.4f}")


if __name__ == "__main__":
    main()
