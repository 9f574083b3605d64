#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <repair_batch|stream_durable|serve_mixed> \\
        --seed N --seconds S --trace <0|1>

The release build goes to $CARGO_TARGET_DIR (default `.bench_build`);
cargo's own output goes to stderr, so the last stdout line is the
benchmark's JSON result. Every argument is passed through unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_GIT_REV"] = git_revision()
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
