#!/usr/bin/env python3
"""Build swgemm and its benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile-cold|sim-tune|serve-mixed \
        --seed N --seconds S --trace 0|1

The build (dune, output on stderr) covers the daemon the serve-mixed
workload drives and the benchmark program itself (perfbench/swbench.ml),
which prints the result as the last line of stdout. Exits non-zero
without a result when the build or the workload fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "swbench.exe")
DAEMON_TARGET = "bin/swgemmd.exe"
DAEMON = os.path.join("_build", "default", DAEMON_TARGET)


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of a swgemm checkout")
    os.makedirs(os.path.join("perfbench", "out", "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(os.path.join("perfbench", "out", "tmp"))
    build = ["dune", "build", "--root", ".", DAEMON_TARGET, "perfbench/swbench.exe"]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    os.execv(EXE, [EXE, *sys.argv[1:], "--daemon", DAEMON])


if __name__ == "__main__":
    main()
