# Development entry points.  `make verify` is the tier-1 gate: build,
# test, and (when ocamlformat is installed) formatting drift.

.PHONY: all build test test-long fmt fmt-apply verify bench-quick bench-serve-quick planbench-smoke clean

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
# eval_grad among them) plus the scale experiment at smoke levels 1-2.
bench-quick: build
	dune exec bench/main.exe -- micro
	dune exec bench/main.exe -- scale-quick

# Serving smoke: start the plan server, drive it with concurrent
# clients for 2 s, and fail on any dropped request or a cold tape
# cache (see bench/serve_bench.ml).
bench-serve-quick: build
	dune exec bench/main.exe -- serve-quick

# Plan-service benchmark smoke: one short untraced run of each
# planbench workload.  planbench exits non-zero when a reply's Phi
# disagrees with the Expr reference (Allocation.evaluate) by more than
# 1e-9, when Theorem 3's bound fails, or when a served Phi is not
# bit-identical to the in-process replay.
planbench-smoke: build
	for w in plan-cold serve-hit serve-drift; do \
		python3 planbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

clean:
	dune clean
