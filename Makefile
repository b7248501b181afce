# Development entry points.  `make verify` is the tier-1 gate: build,
# test, and (when ocamlformat is installed) formatting drift.

.PHONY: all build test test-long fmt fmt-apply verify bench-quick planbench-smoke bench-ab fingerprint clean

all: build

build:
	dune build

test:
	dune runtest

# Soak run for the property suites: every QCheck case count is
# multiplied by PARADIGM_QCHECK_MULT (see test/generators.ml), so the
# random-workload properties see 10x the cases.  The nightly CI job
# runs this.
test-long:
	PARADIGM_QCHECK_MULT=10 dune runtest --force

# Formatting check, gated on the pinned ocamlformat (see .ocamlformat)
# being installed so environments without it still pass `make verify`.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

fmt-apply:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; cannot reformat"; exit 1; \
	fi

verify: build test fmt

# Quick performance sanity: micro-benchmarks (tape vs legacy
# eval_grad among them) plus the scale experiment on strassen:1,
# strassen:2 and the two pinned workgen rows.  scale-quick exits
# non-zero when a non-timing column of any of those four rows (nodes,
# edges, solver counts, Phi, T_psa, simulated) differs from the
# committed BENCH_scale.json, so a change that moves Phi or a solver
# count must regenerate that file (`dune exec bench/main.exe -- scale`).
bench-quick: build
	dune exec bench/main.exe -- micro
	dune exec bench/main.exe -- scale-quick

# Plan-service benchmark smoke: one short untraced run of each
# planbench workload.  planbench exits non-zero when a reply's Phi
# disagrees with the Expr reference (Allocation.evaluate) by more than
# 1e-9, when Theorem 3's bound fails, or when a served Phi is not
# bit-identical to the in-process replay.
planbench-smoke: build
	for w in plan-cold serve-hit serve-drift; do \
		python3 planbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# Parent-vs-change A/B of planbench: the working tree against git
# revision BASE (extracted to a temporary directory), 10 alternating
# pairs of full-length runs per workload.  Prints each end-to-end
# metric's median [Q1, Q3] on both sides, the pairs the change wins and
# a verdict against the BENCHMARK.json bound; exits 1 on any `worse`.
# Each 10 s run also repeats its set-up, so the 60 runs take about 35
# minutes on 2 vCPUs: not a CI step.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev>" >&2; exit 2; }
	python3 bench/ab.py $(BASE)

# Bit-identical plans: the digest of bench/fingerprint.ml's 410 cold
# plans (Phi, A_p, C_p, allocation, solver x, value and counts, T_psa)
# and 150 solves the plan path never runs (warm re-solves and the
# ablate option sets) in the working tree and in git revision BASE,
# extracted as bench-ab does; exits 1 when they differ.  libm's last bits may differ between
# machines, so this compares two builds on one machine: not a CI step.
fingerprint:
	@test -n "$(BASE)" || { echo "usage: make fingerprint BASE=<rev>" >&2; exit 2; }
	python3 bench/fingerprint.py $(BASE)

clean:
	dune clean
