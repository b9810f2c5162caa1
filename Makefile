# `make tier1` and `make smoke` are what CI runs (see ROADMAP.md).
# tier1 is gofmt + build + vet + the full test suite, plus the race detector on
# the packages that execute real goroutines (the cluster's SPMD
# supersteps, samplesort's collective exchanges, core's crash-recovery
# restarts, mergepart's collective merge, the query engine's concurrent
# serving path, the root package's Server front end) and on the
# packages whose tests run in parallel (record, extsort, colstore).

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
# snapshot load, sketch store dispatch) or it silently degrades. Grep
# the cross-package switches, vet, and run the record-level guard test.
lint-aggop:
	./scripts/lint_aggop.sh

# End-to-end answer gates at CI size; each exits nonzero on a wrong
# answer. In order: build -> serve -> report; replicas serve while the
# leader ingests; four replicas with one crash-looping and one
# straggling, every answer checked against the leader (-verify); the
# three-arm advisor scenario (must beat static-minimal, converge within
# the view budget, and answer like the full cube); sketch estimates
# within 5% of the exact oracle; and the benchmark harness's own tests.
smoke:
	$(GO) run ./cmd/qbench -rows 2000 -queries 40 -p 1,2 -workers 4
	$(GO) run ./cmd/qbench -rows 2000 -queries 40 -replicas 1,2 -ingest-batches 3 -ingest-rows 100 -workers 4
	$(GO) run ./cmd/qbench -chaos -verify -rows 4000 -queries 240 -chaos-replicas 4 -workers 8
	$(GO) run ./cmd/qbench -advisor -smoke -rows 4000 -queries 200 -p 2 -advise-every 25
	$(GO) run ./cmd/qbench -sketch -rows 8000 -seed 42
	$(GO) -C bench test ./...

# Native fuzzing of the snapshot loader beyond its seed corpus (which
# plain `go test` already runs). Not part of tier1: it runs for a fixed
# time and a new crasher lands in testdata/fuzz for review.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoadCube -fuzztime 30s .

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
