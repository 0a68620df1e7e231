#!/usr/bin/env python3
"""Build the benchmark in release mode and run it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
to .bench_build when that is unset; build output goes to standard
error, so standard output carries only the benchmark's report, whose
last line is the JSON result. Exits non-zero without a result if the
build fails, e.g. when the repository's crates are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build():
    """Build the release binary; return its path, or None on failure."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.path.dirname(HERE), ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")


def main():
    binary = build()
    if binary is None:
        return 2
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
