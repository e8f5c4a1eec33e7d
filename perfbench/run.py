#!/usr/bin/env python3
"""Builds the daemon and the benchmark harness from source, then runs one
workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Builds go to $CARGO_TARGET_DIR
(default .bench_build). The harness prints its report; the last line of
standard output is the JSON result. Exits non-zero if the sources are
missing, a build fails, or a correctness check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build(env, *args):
    # Cargo reports on stderr, which keeps stdout for the result.
    cmd = ["cargo", "build", "--release", "--offline", *args]
    return subprocess.run(cmd, cwd=REPO, env=env, stdout=sys.stderr).returncode


def main():
    if not (os.path.isfile(os.path.join(REPO, "Cargo.toml"))
            and os.path.isdir(os.path.join(REPO, "crates", "dbp-serve"))):
        print("perfbench: repository sources not found beside perfbench/",
              file=sys.stderr)
        return 2
    target = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if build(env, "-p", "dbp-serve", "--bin", "dbp-serve") != 0:
        return 3
    if build(env, "--manifest-path", os.path.join(HERE, "Cargo.toml")) != 0:
        return 3
    harness = os.path.join(target, "release", "perfbench")
    serve = os.path.join(target, "release", "dbp-serve")
    return subprocess.run([harness, *sys.argv[1:], "--serve-bin", serve],
                          cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
