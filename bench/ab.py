#!/usr/bin/env python3
"""Parent-vs-change A/B of the plan-service benchmark.

    python3 bench/ab.py BASE        (or: make bench-ab BASE=<rev>)

Extracts git revision BASE into a temporary directory (removed on exit)
and compares it with the working tree.  For every workload that
BENCHMARK.json names it runs PAIRS pairs of planbench runs
(`planbench/run.py --trace 0`, run_seconds long), each pair on one seed,
alternating which side runs first.  For every end-to-end metric it
prints both sides' median [Q1, Q3], how many pairs the change wins
(ties count for neither) and a verdict against the metric's bound:

    worse       the change median is worse than the base median by more
                than the bound, relatively
    unresolved  the base runs' IQR exceeds the bound, relative to their
                median, and not every change run beats every base run
    ok          otherwise

Exits 1 on any `worse`, and 2 when a run fails, prints no result or
reports "correct": false.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SEED0 = 9201
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"bench-ab: {msg}", file=sys.stderr)
    sys.exit(2)


def extract(rev, into):
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"cannot extract {rev}")


def run(tree, side, workload, seed, seconds):
    name = f"{side} {workload} seed {seed}"
    proc = subprocess.run(
        [sys.executable, "planbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{name}: exit {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        correct = result["correct"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        fail(f"{name}: no result line")
    if correct is not True:
        fail(f"{name}: \"correct\": false")
    return metrics


def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return statistics.median(xs), q1, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, change, direction, bound):
    bmed, bq1, bq3 = quartiles(base)
    cmed = statistics.median(change)
    loss = cmed - bmed if direction == "lower" else bmed - cmed
    if loss > bound * abs(bmed):
        return "worse"
    clear = all(better(c, b, direction) for c in change for b in base)
    if bq3 - bq1 > bound * abs(bmed) and not clear:
        return "unresolved"
    return "ok"


def main():
    if len(sys.argv) != 2:
        fail("usage: bench/ab.py BASE")
    rev = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]

    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as base_tree:
        extract(rev, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for w in workloads:
            results[w] = {"base": [], "change": []}
            for i in range(PAIRS):
                seed = SEED0 + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    values = run(trees[side], side, w, seed, seconds)
                    results[w][side].append(values)
                    print(f"{w} pair {i + 1}/{PAIRS} {side} seed {seed}: "
                          f"{values.get('throughput_rps', float('nan')):.1f} req/s",
                          file=sys.stderr, flush=True)

    def show(xs):
        med, q1, q3 = quartiles(xs)
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"

    print(f"bench-ab: base {rev} vs working tree, {PAIRS} pairs per workload, "
          f"{seconds} s runs")
    print(f"{'workload':<12} {'metric':<22} {'base median [Q1, Q3]':<34} "
          f"{'change median [Q1, Q3]':<34} {'wins':>5}  verdict")
    worse = False
    for w in workloads:
        for name, direction, bound in metrics:
            try:
                base = [r[name] for r in results[w]["base"]]
                change = [r[name] for r in results[w]["change"]]
            except KeyError:
                fail(f"{w}: a run reports no {name}")
            wins = sum(better(c, b, direction) for b, c in zip(base, change))
            v = verdict(base, change, direction, bound)
            worse = worse or v == "worse"
            print(f"{w:<12} {name:<22} {show(base):<34} {show(change):<34} "
                  f"{wins:>2}/{PAIRS}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
