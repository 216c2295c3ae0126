# Reproduction of "PLUS: A Distributed Shared-Memory System" (ISCA 1990).

GO ?= go

.PHONY: all check build test race test-log bench bench-smoke quick-smoke trace-smoke race-smoke vet fmt lint experiments experiments-quick golden examples clean

all: check

# The default gate: everything a PR must keep green. The shard
# equivalence and serial-only rejection tests ride in test/race,
# quick-smoke regenerates every experiment at quick size (each sweep
# self-validates, e.g. kvserve's op counters), trace-smoke exercises
# the instrumented path, race-smoke runs the happens-before
# detection corpus end to end, and bench-smoke runs every benchmark
# under internal/ once. Nothing here writes into the repo;
# wall-clock measurement is perfbench's job (BENCHMARK.json).
check: build test race lint bench-smoke quick-smoke trace-smoke race-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite under the race detector (short mode keeps it a few minutes).
race:
	$(GO) test -race -short ./...

# The full test log the repository ships with.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# One iteration of every benchmark under internal/: `go test` compiles
# benchmarks but never runs them, so a benchmark that panics or fails
# its own checks would otherwise go unnoticed. Timings are meaningless
# at one iteration and nothing is written.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Every registered experiment at quick size through the parallel
# runner. Exits nonzero if any point fails its self-validation.
quick-smoke:
	$(GO) run ./cmd/plusbench -quick -exp all >/dev/null

# Quick instrumented run: exercises the structured-event layer end to
# end (plusbench validates the Chrome trace JSON round-trips through
# encoding/json before writing it, exiting nonzero otherwise) and
# prints the latency histograms + stall summary to /dev/null.
trace-smoke:
	$(GO) run ./cmd/plusbench -quick -exp figure2-1 -parallel 2 \
		-trace /tmp/plus-trace-smoke.json -sample 5000 -hist >/dev/null
	@rm -f /tmp/plus-trace-smoke.json

# Happens-before race-detection smoke: runs the registered corpus
# (racy pair, fenced pair, SOR, SSSP) under the data-access event
# layer. plusbench exits nonzero iff a racy program goes undetected or
# a clean one is misflagged — either is a detector regression.
race-smoke:
	$(GO) run ./cmd/plusbench -races >/dev/null

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Lint fails on any vet finding or unformatted file.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Regenerate every table and figure of the paper at full size.
experiments:
	$(GO) run ./cmd/plusbench | tee bench_results_full.txt

experiments-quick:
	$(GO) run ./cmd/plusbench -quick

# Re-pin the golden files after an intentional timing-model change.
golden:
	UPDATE_GOLDEN=1 $(GO) test ./experiments -run TestGolden

examples:
	@for e in quickstart shortestpath beamsearch locks prodcons migration parloop; do \
		echo "=== $$e ==="; $(GO) run ./examples/$$e || exit 1; \
	done

clean:
	rm -f test_output.txt bench_output.txt
