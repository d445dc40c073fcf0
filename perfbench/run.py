#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Two builds land under $CARGO_TARGET_DIR
(default .bench_build): the default build, which every end-to-end run
uses, and an `obs`-feature build whose counters the traced run reads.
A traced run first makes an untraced run with the same arguments, so it
can report `trace.overhead`. The last line of standard output is the
result line; build output and progress go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "wnrs-perfbench"


def build(target_root, obs):
    """Builds one variant; returns its binary path, or None on failure."""
    target = os.path.join(target_root, "perfbench-obs" if obs else "perfbench")
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target, "--bin", BINARY]
    if obs:
        cmd += ["--features", "obs"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", BINARY)


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()

    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Both variants are built on every run (a no-op once fresh), so only
    # the first run in a checkout pays for compilation.
    plain = build(target_root, obs=False)
    traced = build(target_root, obs=True)
    if plain is None or traced is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = ["--workload", opts.workload, "--seed", opts.seed, "--seconds", opts.seconds,
            "--work-dir", os.path.abspath(".bench_work")]
    if opts.smoke:
        args.append("--smoke")
    code, lines = run(plain, args + ["--trace", "0"])
    if opts.trace == "0" or code != 0:
        print("\n".join(lines))
        return code

    # The untraced run's output goes to standard error, for the record.
    print("\n".join(lines), file=sys.stderr)
    untraced = json.loads(lines[-1])
    if not untraced["correct"]:
        print("perfbench: the untraced run failed its checks", file=sys.stderr)
        return 1
    ops_s = untraced["metrics"]["ops_s"]["value"]
    code, lines = run(traced, args + ["--trace", "1", "--untraced-ops-s", repr(ops_s)])
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
