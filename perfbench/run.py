#!/usr/bin/env python3
"""Builds the benchmark and the thresher-serve daemon from source, then runs
one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <leak-table1|null-scaled|serve-session|all> \
        --seed <n> --seconds <s> --trace <0|1>

Both builds are release builds into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is non-zero,
and no result is printed, when a build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "thresher", "--bin", "thresher-serve"],
    ]
    for args in builds:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=root,
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print("perfbench: build failed: " + " ".join(args), file=sys.stderr)
            return build.returncode or 1
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [
            os.path.join(release, "perfbench"),
            "--root",
            root,
            "--serve-bin",
            os.path.join(release, "thresher-serve"),
            *sys.argv[1:],
        ],
        cwd=root,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
