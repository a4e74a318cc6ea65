#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds 10] [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, and prints for every
metric of the result line its median, its quartiles and the quartile spread
((q3 - q1) / median), next to the bound BENCHMARK.json fixes for it. A metric
that read the same to the last digit in every run is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values = {}
    digits = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run failed (exit {out.returncode})")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"seed {seed}: outputs incorrect: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            digits.setdefault(name, set()).add(repr(m["value"]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    limit = bounds()
    print(f"\n{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = limit.get(name)
        same = "  same value in every run" if len(digits[name]) == 1 else ""
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{same}")


if __name__ == "__main__":
    main()
