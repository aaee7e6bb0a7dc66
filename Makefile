# Tier-1 entry point: `make check` is what CI (and the ROADMAP's
# tier-1 verify) runs.  It must stay green on every commit.

GO ?= go

.PHONY: check build test race vet fmt lint fuzz fuzz-smoke bench perfbench-test bench-serve-smoke

check: fmt vet lint build test race fuzz-smoke perfbench-test bench-serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The service and the parallel drivers make concurrency a first-class
# feature; the race detector keeps it honest.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repo-invariant linter (cmd/eprelint): CFG edges only written through
# the marking helpers, instructions only constructed by internal/ir,
# deterministic pass bodies (no wall clock, no map-order-dependent
# output).
# Runs beside go vet; both are part of `check`.
lint:
	$(GO) run ./cmd/eprelint .
	$(GO) vet ./...

# Fails (and lists the files) if anything is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Short fuzz sessions over the parser round-trip corpus and the PL/0
# front end (not part of `check`; the committed seeds already run under
# plain `go test`).
fuzz:
	$(GO) test ./internal/ir/ -fuzz FuzzParseRoundTrip -fuzztime 30s
	$(GO) test ./internal/pl0/ -fuzz FuzzPL0Parse -fuzztime 30s

# Differential-fuzzing smoke test, part of `check`: 200 generated
# programs at fixed seeds, every optimization level interpreted
# against the unoptimized reference, then 200 more in each
# cross-backend mode (-gvn-diff: the GVN-carrying levels run under
# both the AWZ and the precise backend; -pre-diff: the PRE-carrying
# levels run under drechsler, lcm and lospre — the independent
# implementations oracle each other).  Any miscompile, verifier
# reject, panic, or runaway exits nonzero with a shrunk reproducer.
fuzz-smoke:
	$(GO) run ./cmd/epre fuzz -seed 1 -n 200 -workers 4
	$(GO) run ./cmd/epre fuzz -seed 1000 -n 200 -workers 4 -gvn-diff
	$(GO) run ./cmd/epre fuzz -seed 2000 -n 200 -workers 4 -pre-diff
	$(GO) run ./cmd/epre fuzz -seed 3000 -n 150 -workers 4 -call-heavy \
		-gvn-diff -pre-diff

# Performance tracking: Go micro-benchmarks, the serve/table1 bench
# (single-flight dedup assertion, analysis-cache counts into
# BENCH_passmgr.json), and the loadgen corpus replay that owns
# BENCH_serve.json (single/batch/warm-restart scenarios with HDR
# latency histograms and counter deltas).  End-to-end and per-layer
# measurement lives in perfbench/ (see perfbench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/epre bench -passmgr-out BENCH_passmgr.json
	$(GO) run ./cmd/epre loadgen -out BENCH_serve.json

# The benchmark harness is its own module, so the root build/vet/test
# never compiles it; this keeps it building against the current
# program API.  Part of `check`.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Serve-tier smoke, part of `check`: a tiny loadgen replay through the
# single, batch and warm-restart scenarios with response verification
# on — every served ILOC must be byte-identical to a direct in-process
# core optimization, across the memory-cache, batch and disk-warmed
# paths, with zero request errors.  Report discarded; numbers land in
# BENCH_serve.json via `make bench`.
bench-serve-smoke:
	$(GO) run ./cmd/epre loadgen -out '' -requests 24 -corpus-n 6 \
		-workers 4 -batch 6
	$(GO) run ./cmd/epre loadgen -out '' -requests 16 -corpus suite \
		-workers 4 -batch 4
