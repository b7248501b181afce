#!/usr/bin/env python3
"""Plan-service benchmark entry point.

Run from the root of a source checkout:

    python3 planbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the planner and planbench/main.exe from source with dune, then
runs one workload (see planbench/README.md).  The last line of standard
output is the JSON result; build output goes to standard error.
Exits non-zero, printing no result, when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("plan-cold", "serve-hit", "serve-drift")
BENCH = os.path.join("_build", "default", "planbench", "main.exe")
PLANNER = os.path.join("_build", "default", "bin", "paradigm.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    dune = shutil.which("dune")
    if dune is None:
        print("planbench: dune is not on PATH", file=sys.stderr)
        return 2
    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./planbench/main.exe",
         "./bin/paradigm.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("planbench: build failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [BENCH, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--paradigm", PLANNER])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
