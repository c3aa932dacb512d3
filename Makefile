# Convenience targets; everything is plain dune underneath.

.PHONY: all build check test lint lint-race bench bench-big bench-perf bench-smoke bench-gate-selftest examples doc clean outputs

all: build

build:
	dune build @all

# Fast typecheck: compile signatures/cmis only, no linking or tests —
# the first CI step, so type errors surface before anything slower runs.
check:
	dune build @check

# Every gate: unit and property suites, the E1-E20 tables, and the
# dcount command lines test/test_cli.ml runs with their exit codes —
# chaos/load --check sweeps, model-checker runs and the byte-for-byte
# regeneration of the stored .mcs counterexamples.
test:
	dune runtest

# Determinism & protocol-hygiene gate (docs/LINT.md): dlint over the
# library and binary sources. Exit 0 = clean, 1 = findings, 2 = usage.
lint:
	dune exec bin/dcount.exe -- lint lib bin

# Domain-safety gate (docs/LINT.md, drace family): the engine sources
# must be drace-clean, and the racy negative controls under test/race
# must keep firing — if they stop, the analyzer lost its teeth.
lint-race:
	dune exec bin/dcount.exe -- lint --rules drace lib bin
	! dune exec bin/dcount.exe -- lint --rules drace test/race/racy_par.ml
	! dune exec bin/dcount.exe -- lint --rules drace test/race/racy_replicate.ml

bench:
	dune exec bench/main.exe

bench-big:
	dune exec bench/main.exe -- --big

# Full engine-throughput suite; writes BENCH_4.json (docs/PERFORMANCE.md).
# Always the release profile, so committed artefacts are comparable.
bench-perf:
	dune build --profile release bench/perf.exe
	./_build/default/bench/perf.exe --json --out BENCH_4.json

# Seconds-scale CI regression gate: a smoke benchmark run compared
# against the newest committed BENCH_*.json (rates must stay within the
# gate tolerance — cross-mode smoke-vs-full comparisons double it; see
# bench/perf.ml), then the emitted artefact is re-parsed and validated.
# Non-zero exit on regression.
bench-smoke:
	dune build --profile release bench/perf.exe
	./_build/default/bench/perf.exe --smoke --json --out BENCH_smoke.json \
	  --gate "$$(ls BENCH_[0-9]*.json | sort -V | tail -1)"
	./_build/default/bench/perf.exe --validate BENCH_smoke.json

# Prove the gate has teeth: a 4x synthetic slowdown (--handicap 0.25)
# must make bench-smoke's comparison fail. Exit 0 here means the gate
# correctly rejected the handicapped run.
bench-gate-selftest:
	dune build --profile release bench/perf.exe
	! ./_build/default/bench/perf.exe --smoke --handicap 0.25 \
	  --gate "$$(ls BENCH_[0-9]*.json | sort -V | tail -1)"

examples:
	dune exec examples/quickstart.exe
	dune exec examples/ticket_service.exe
	dune exec examples/adversary_demo.exe
	dune exec examples/quorum_failover.exe
	dune exec examples/concurrent_batches.exe
	dune exec examples/job_queue.exe

doc:
	dune build @doc

# The artefacts EXPERIMENTS.md numbers were taken from.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
