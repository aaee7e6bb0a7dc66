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
# levels run under drechsler and lospre — each backend is checked
# against the unoptimized reference on its own).  Any miscompile, verifier
# reject, panic, or runaway exits nonzero with a shrunk reproducer.
fuzz-smoke:
	$(GO) run ./cmd/epre fuzz -seed 1 -n 200 -workers 4
	$(GO) run ./cmd/epre fuzz -seed 1000 -n 200 -workers 4 -gvn-diff
	$(GO) run ./cmd/epre fuzz -seed 2000 -n 200 -workers 4 -pre-diff
	$(GO) run ./cmd/epre fuzz -seed 3000 -n 150 -workers 4 -call-heavy \
		-gvn-diff -pre-diff

# Go micro-benchmarks, one iteration each so they stay compiling and
# running.  End-to-end and per-layer measurement lives in perfbench/
# (see perfbench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark harness is its own module, so the root build/vet/test
# never compiles it; this keeps it building against the current
# program API.  Part of `check`.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Serve-tier smoke, part of `check`: a tiny loadgen replay through the
# single, batch and warm-restart scenarios with response verification
# on — every served ILOC must be byte-identical to a direct in-process
# core optimization, across the memory-cache, batch and disk-warmed
# paths, with zero request errors.  Report discarded; serve-tier
# numbers come from perfbench/'s serve workload.
bench-serve-smoke:
	$(GO) run ./cmd/epre loadgen -out '' -requests 24 -corpus-n 6 \
		-workers 4 -batch 6
	$(GO) run ./cmd/epre loadgen -out '' -requests 16 -corpus suite \
		-workers 4 -batch 4
