#!/usr/bin/env python3
"""Build rsdc and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); run artefacts (results, spans, durable stores) go to
.perfbench/. The last stdout line is the JSON summary:
{"correct", "attempted", "failed", "metrics"}.

Workloads: serve-binary-policy, serve-jsonl-control, durable-ticks.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-binary-policy", "serve-jsonl-control", "durable-ticks")
RUN_TIMEOUT_S = 170


def build(env):
    """Release-build the rsdc CLI (the program) and the benchmark package."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rsdc-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        # Build output goes to stderr: stdout ends with the JSON summary.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates", "cli")
    ):
        sys.exit("perfbench: run from the rsdc repository root (no Cargo workspace here)")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    build(env)

    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--rsdc", os.path.join(target, "release", "rsdc"),
        "--workdir", workdir,
    ]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {a.workload} ran past {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
