#!/usr/bin/env python3
"""Regenerate the reference figures of README.md.

Runs the benchmark binary once per (workload, seed) and prints, per workload
and end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
of each set of runs, plus the change of the second set's median against the
first. Run it from the repository root after building:

    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    python3 perfbench/reference.py --sets 2 --seeds 10 --seconds 25

The binary is looked up in $CARGO_TARGET_DIR (default perfbench/target).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["wide_serve", "lake_churn"]


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct:\n{out.stderr}")
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = os.path.join(target, "release", "autofeat-perfbench")
    for w in args.workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(1 + 100 * s, 1 + 100 * s + args.seeds)
            sets.append([run(binary, w, seed, args.seconds)["metrics"] for seed in seeds])
        print(f"\n{w}\n\n| metric | unit | " + " | ".join(f"set {i + 1} median | set {i + 1} spread" for i in range(args.sets)) + " | set 2 vs 1 |")
        print("|---|---|" + "---|---|" * args.sets + "---|")
        for name, first in sets[0][0].items():
            cells, meds = [], []
            for runs in sets:
                med, sp = spread([r[name]["value"] for r in runs])
                meds.append(med)
                cells.append(f"{med:.4g} | {sp:.1%}")
            change = f"{meds[1] / meds[0] - 1:+.1%}" if len(meds) > 1 else ""
            print(f"| {name} | {first['unit']} | " + " | ".join(cells) + f" | {change} |")


if __name__ == "__main__":
    main()
