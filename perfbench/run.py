#!/usr/bin/env python3
"""Build the ROX benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dblp-combos|xmark-q1|serve-xmark \
        --seed N --seconds S --trace 0|1

The benchmark is built with dune into _build/ under the current
directory, with dune's shared cache off so that nothing is written
outside it. Build messages go to standard error. The benchmark's own
report goes to standard output; its last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is the
benchmark's: 0 when every answer was right, 1 when one was wrong, 2 on
bad arguments. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=env,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
