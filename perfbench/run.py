#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all three).

Usage, from the repository root:

    python3 perfbench/run.py --workload <grade-wide|batch-campaign|serve-wire|all>
                             [--seed N] [--seconds S] [--trace 0|1]

The Rust package in this directory is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build) and run with the same arguments.
Its last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
when the build fails or any answer differs from the reference.  With
`--workload all` the three workloads run in turn and the last line merges
their results, each metric prefixed by its workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grade-wide", "batch-campaign", "serve-wire"]


def build(env):
    """Builds the release binary; returns its path, or None on failure."""
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def git_revision():
    """The checkout's revision, when it is a git work tree of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def run_one(binary, args, env):
    """Runs one workload, echoing its output; returns (exit code, last line)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def main(argv):
    env = dict(os.environ)
    rev = git_revision()
    if rev:
        env["PERFBENCH_GIT_REV"] = rev
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] == ["all"]:
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2 :]
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        status = 0
        for workload in WORKLOADS:
            code, last = run_one(binary, ["--workload", workload] + rest, env)
            try:
                result = json.loads(last)
            except ValueError:
                print(f"perfbench: {workload} printed no result", file=sys.stderr)
                return code or 1
            status = status or code
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = value
        print(json.dumps(merged))
        return status
    code, _ = run_one(binary, argv, env)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
