#!/usr/bin/env python3
"""Builds the GENIO benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dp-small --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: perfbench/target). The
benchmark binary replaces this process, so its exit code and output are
the run's; see perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        build = subprocess.run(command, env={**os.environ, "CARGO_TARGET_DIR": target},
                               stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "genio-perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 2  # not reached: execv replaces this process or raises


if __name__ == "__main__":
    sys.exit(main())
