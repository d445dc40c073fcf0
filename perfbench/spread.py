#!/usr/bin/env python3
"""Runs workloads over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workloads whynot-mem,serve-writes --seeds 1-10 [--seconds 15] [--trace 0]

Run from the repository root, after `perfbench/run.py` has built the
benchmark once. For every metric it prints the median, the first and
third quartiles (Python's `statistics.quantiles(values, n=4)`) and the
interquartile range as a share of the median, the statistic the bounds
in BENCHMARK.json are checked against. It prints only; it writes no file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return [str(s) for s in range(int(lo), int(hi) + 1)]
    return spec.split(",")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    opts = parser.parse_args()
    for workload in opts.workloads.split(","):
        values = {}
        units = {}
        failed = 0
        started = time.time()
        for seed in seeds(opts.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", opts.seconds, "--trace", opts.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                failed += 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
                failed += 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        runs = len(next(iter(values.values()), []))
        print(f"## {workload}: {runs} runs, {failed} failed, "
              f"{(time.time() - started) / max(runs, 1):.0f} s per run")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|---|")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {share:.3f} |")
        print()


if __name__ == "__main__":
    main()
