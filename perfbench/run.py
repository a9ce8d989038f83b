#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <cold_read|warm_repeat|serve_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload, and passes the program's output through: the last line of
standard output is the JSON result. With `--trace 1` it first runs the
workload's fixed prefix in a separate process and has the traced run
compare its Stable counter deltas with that replay.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("perfbench", "out")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run(cmd, timeout):
    """Runs `cmd`, passing its output through; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, os.environ["CARGO_TARGET_DIR"])
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
        timeout=880,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")

    common = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    budget = args.seconds + 150
    cmd = common + ["--seconds", str(args.seconds), "--trace", args.trace, "--rev", revision()]
    if args.trace == "1":
        # The replay's output goes to stderr: stdout ends with the result.
        replay = subprocess.run(common + ["--stable-only"], cwd=ROOT, stdout=sys.stderr, timeout=60)
        if replay.returncode != 0:
            fail("the Stable-delta replay failed")
        expect = os.path.join(OUT, f"{args.workload}-seed{args.seed}.replay.txt")
        cmd += ["--stable-expect", expect]
    sys.stdout.flush()
    sys.exit(run(cmd, budget))


if __name__ == "__main__":
    main()
