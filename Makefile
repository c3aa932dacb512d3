# Convenience targets; everything is plain dune underneath.

.PHONY: all build check test lint lint-race test-chaos test-mc test-byz test-durable test-load bench bench-big bench-perf bench-smoke bench-gate-selftest examples doc clean outputs

all: build

build:
	dune build @all

# Fast typecheck: compile signatures/cmis only, no linking or tests —
# the first CI step, so type errors surface before anything slower runs.
check:
	dune build @check

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

# Fault-injection smoke (docs/FAULTS.md): the failure-aware quorum
# counter must complete every live-origin op under f < ceil(n/2)
# crashes, and the retirement counter must stall cleanly (exit 0 means
# both chaos checks passed).
test-chaos:
	dune exec bin/dcount.exe -- chaos -c quorum-majority -n 9 --crashes 0,1,2,3,4 --ops 18 --seed 42 --check
	dune exec bin/dcount.exe -- chaos -c retire-tree -n 8 --crashes 0,1,2 --ops 16 --check
	dune exec bin/dcount.exe -- chaos -c retire-ft -n 8 --crashes 0,1,2,3 --ops 16 --check
	dune exec bin/dcount.exe -- chaos -c retire-ft -n 8 --crashes 0,1,2,3,4 --ops 16 --recover --check

# Model-checking smoke (docs/MODELCHECK.md): exhaustively verify the
# central and retirement counters over every delivery interleaving at
# small scale, prove the broken negative controls still violate, and
# replay the stored counterexamples — regenerating each, into a private
# temporary directory removed afterwards, must reproduce its
# test/data/*.mcs byte for byte. The retire-ft crash-adversary rows
# are depth-bounded (--max-depth + --allow-incomplete): the failure-aware
# audit's timer interleavings make the full space intractable, so the
# sweep asserts no-duplicate/linearizability/Hot-Spot over every
# interleaving of the first 6 decisions (crash timing included) and a
# deterministic tail beyond.
test-mc:
	dune exec bin/dcount.exe -- mc -c central -n 5
	dune exec bin/dcount.exe -- mc -c retire-tree -n 8 -s explicit:1,8,4
	dune exec bin/dcount.exe -- mc -c retire-ft -n 8 -s explicit:1,8,4
	dune exec bin/dcount.exe -- mc -c retire-ft -n 8 -s explicit:2,5 --faults crash:1@99 --max-depth 6 --allow-incomplete
	dune exec bin/dcount.exe -- mc -c retire-ft -n 8 -s explicit:2,5 --faults crash:5@99 --max-depth 6 --allow-incomplete
	dune exec bin/dcount.exe -- mc -c amnesiac -n 4 --expect-violation
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	dune exec bin/dcount.exe -- mc -c race-reply -n 3 --expect-violation --counterexample-out "$$tmp/race_reply_n3.mcs" && \
	cmp "$$tmp/race_reply_n3.mcs" test/data/race_reply_n3.mcs && \
	dune exec bin/dcount.exe -- mc --replay test/data/race_reply_n3.mcs && \
	dune exec bin/dcount.exe -- mc -c ft-no-handoff -n 8 -s explicit:2,5 --faults crash:1@99 --max-depth 6 --expect-violation --counterexample-out "$$tmp/ft_no_handoff_n8.mcs" && \
	cmp "$$tmp/ft_no_handoff_n8.mcs" test/data/ft_no_handoff_n8.mcs && \
	dune exec bin/dcount.exe -- mc --replay test/data/ft_no_handoff_n8.mcs && \
	dune exec bin/dcount.exe -- mc -c durable-no-cas -n 2 -s explicit:2 --faults crash:1@99/recover:1@120 --max-depth 10 --max-states 300000 --expect-violation --counterexample-out "$$tmp/durable_no_cas_n2.mcs" && \
	cmp "$$tmp/durable_no_cas_n2.mcs" test/data/durable_no_cas_n2.mcs && \
	dune exec bin/dcount.exe -- mc --replay test/data/durable_no_cas_n2.mcs && \
	dune exec bin/dcount.exe -- mc -c sync-no-threshold -n 4 -s explicit:1 --faults byz:2@99/byzval:2:off-by-1/byzeq:2 --max-depth 100 --expect-violation --property agreement-violated --counterexample-out "$$tmp/sync_no_threshold_n4.mcs" && \
	cmp "$$tmp/sync_no_threshold_n4.mcs" test/data/sync_no_threshold_n4.mcs && \
	dune exec bin/dcount.exe -- mc --replay test/data/sync_no_threshold_n4.mcs

# Byzantine gate (docs/FAULTS.md): the adversarial test battery, then
# the chaos sweep's f < n/3 contract end to end — sync-count completes
# every operation with zero agreement stalls at b <= f while the
# sync-no-threshold control splits on every b >= 1 row, and the model
# checker's corruption adversary finds agreement-violated on the control
# (byte-identical stored counterexample, checked by test-mc) while
# sync-count survives the same bounded hunt.
test-byz:
	dune exec test/test_byzantine.exe
	dune exec bin/dcount.exe -- chaos --byz -c sync-count -n 7 --check
	dune exec bin/dcount.exe -- chaos --byz -c sync-no-threshold -n 7 --check
	dune exec bin/dcount.exe -- run -c sync-count -n 7 -s round-robin:10 --faults byz:3@0/byzval:3:max-int/byzeq:3/byz:5@0/byzval:5:off-by-7
	dune exec bin/dcount.exe -- mc -c sync-count -n 4 -s explicit:1 --faults byz:2@99/byzval:2:off-by-1/byzeq:2 --max-states 4000 --max-depth 100 --allow-incomplete --property agreement-violated

# Durability gate (docs/DURABILITY.md): the WAL-backed counter loses no
# acked increment under crash/recover chaos (store-RPC faults included),
# the oswald specs hold under the model checker's crash/recover
# adversary (bounded; CounterProgress via --progress), and the stored
# durable-no-cas counterexample regenerates byte-for-byte — the witness
# that the manifest CAS is load-bearing.
test-durable:
	dune exec bin/dcount.exe -- chaos -c durable -n 4 --ops 40 --crashes 0,1,2,3 --recover --check
	dune exec bin/dcount.exe -- chaos -c durable -n 4 --ops 40 --crashes 0,1,2,3 --drops 0,0.1 --recover --check
	dune exec bin/dcount.exe -- mc -c durable -n 2 -s explicit:2,2,2
	dune exec bin/dcount.exe -- mc -c durable -n 2 -s explicit:2,2 --faults crash:1@99/recover:1@120 --progress --max-depth 12 --max-states 20000 --allow-incomplete
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	dune exec bin/dcount.exe -- mc -c durable-no-cas -n 2 -s explicit:2 --faults crash:1@99/recover:1@120 --max-depth 10 --max-states 300000 --expect-violation --counterexample-out "$$tmp/durable_no_cas_n2.mcs" && \
	cmp "$$tmp/durable_no_cas_n2.mcs" test/data/durable_no_cas_n2.mcs && \
	dune exec bin/dcount.exe -- mc --replay test/data/durable_no_cas_n2.mcs

# Open-loop load gate (docs/LOAD.md): the generator/checker unit+property
# suite, then dcount load --check end to end — the paper's counter, the
# combining tree and the serialising crash-tolerant counters (retire-ft,
# durable) must stay linearizable at the moderate-overlap rate where the
# counting network provably is not (exit 1 there is the negative
# control).
test-load:
	dune exec test/test_load.exe
	dune exec bin/dcount.exe -- load -c retire-tree -n 64 --rate 0.05 --ops 1000 --seed 42 --check
	dune exec bin/dcount.exe -- load -c combining -n 64 --rate 0.05 --ops 1000 --seed 42 --check
	dune exec bin/dcount.exe -- load -c retire-ft -n 64 --rate 0.05 --ops 1000 --seed 42 --check
	dune exec bin/dcount.exe -- load -c durable -n 64 --rate 0.05 --ops 1000 --seed 42 --check
	! dune exec bin/dcount.exe -- load -c counting-net -n 64 --rate 0.05 --ops 1000 --seed 42 --check

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
