#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repo root. Builds perfbench/ (and the system libraries it links
from src/) into .bench_build/ with CMake, then runs one workload. Build output
goes to stderr; the benchmark's report and its final JSON line go to stdout.
A traced run also writes its spans to .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Each run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the system sources (src/) are missing; "
                 "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
