# `make tier1` and `make smoke` are what CI runs (see ROADMAP.md).
# tier1 is gofmt + build + vet + the full test suite, plus the race detector on
# the packages that execute real goroutines (the cluster's SPMD
# supersteps and ledger commits, samplesort's collective exchanges,
# core's crash-recovery restarts, mergepart's collective merge, the query
# engine's shared execute — concurrent queries scanning rank slices on
# plain goroutines, loading the published view-set topology while
# maintenance swaps in a new one, filling its once-only prefix-index
# slots and committing ledgers — and the root package's Cube/Server
# queries racing ingest and the advisor) and on the packages whose tests run in parallel (record,
# extsort, colstore).

GO ?= go

.PHONY: tier1 fmt build vet test race lint-aggop smoke fuzz bench bench-figs experiments

tier1: fmt build vet test race lint-aggop

# Fails on any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/cluster/... ./internal/samplesort/... ./internal/core/... ./internal/mergepart/... ./internal/ingest/... ./internal/queryengine/... ./internal/replica/... ./internal/faults/... ./internal/gen/... ./internal/advisor/... ./internal/record/... ./internal/extsort/... ./internal/colstore/... ./internal/sketch/... ./internal/pipesort/... ./internal/simdisk/... ./internal/sample/... .

# AggOp / sketch-kind exhaustiveness guard: a new aggregate operator
# must be wired through every serve/merge switch (public enum,
# snapshot load) and a new sketch kind through the sketch constructor
# and blob decoder, or it silently degrades. Grep the cross-package
# switches, vet, and run the record-level guard test.
lint-aggop:
	./scripts/lint_aggop.sh

# The benchmark harness's own tests (bench/ is its own module, so
# `make test` does not reach it). The end-to-end answer gates that once
# ran here are root tests and run in `make test`.
smoke:
	$(GO) -C bench test ./...

# Native fuzzing of the snapshot and CSV loaders beyond their seed
# corpora (which plain `go test` already runs). Not part of tier1: each
# target runs for a fixed time and a new crasher lands in testdata/fuzz
# for review.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCube$$' -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCSV$$' -fuzztime 30s .

# The repo's benchmark (BENCHMARK.json): four workloads, end-to-end and
# per-layer metrics on both clocks, every answer oracle-checked.
bench:
	bash bench/run.sh

# Paper-figure benchmark sweep: each "iteration" is one full simulated
# experiment, so a single run (-benchtime=1x) is deliberate here.
bench-figs:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

experiments:
	$(GO) run ./cmd/experiments -fig all
