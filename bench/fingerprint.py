#!/usr/bin/env python3
"""Plan fingerprint of the working tree against a git revision.

    python3 bench/fingerprint.py BASE        (or: make fingerprint BASE=<rev>)

Extracts BASE into a temporary directory (removed on exit), the way
bench/ab.py does, builds this tree's bench/fingerprint.ml inside it
against BASE's libraries, and runs it there and here
(`bench/main.exe -- fingerprint`).  Both print one digest over the
bits of the same cold plans.  Exits 0 when the digests are equal, 1
when they differ and 2 when a build or run fails.  libm's last bits
may differ between machines, so both sides run on this one.
"""

import os
import shutil
import subprocess
import sys
import tempfile

from ab import ROOT, extract, fail

OVERLAY = "fingerprint-overlay"
DUNE = """(executable
 (name run)
 (libraries numeric convex mdg costmodel machine kernels workgen core))
"""


def digest(cmd, tree, name):
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{name}: exit {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("fingerprint ")]
    if not lines:
        fail(f"{name}: no fingerprint line")
    print(f"{name}: {lines[-1]}", flush=True)
    return lines[-1].split()[1]


def main():
    if len(sys.argv) != 2:
        fail("usage: bench/fingerprint.py BASE")
    rev = sys.argv[1]
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as base_tree:
        extract(rev, base_tree)
        overlay = os.path.join(base_tree, OVERLAY)
        os.mkdir(overlay)
        shutil.copy(os.path.join(ROOT, "bench", "fingerprint.ml"), overlay)
        with open(os.path.join(overlay, "dune"), "w") as f:
            f.write(DUNE)
        with open(os.path.join(overlay, "run.ml"), "w") as f:
            f.write("let () = Fingerprint.run ()\n")
        base = digest([dune, "exec", "--root", ".", "--display", "quiet",
                       f"./{OVERLAY}/run.exe"], base_tree, f"base {rev}")
    change = digest([dune, "exec", "--root", ".", "--display", "quiet",
                     "./bench/main.exe", "--", "fingerprint"], ROOT, "working tree")
    if base != change:
        print("fingerprint: plans differ")
        return 1
    print("fingerprint: plans are bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
