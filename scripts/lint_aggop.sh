#!/usr/bin/env bash
# lint_aggop.sh — AggOp / sketch-kind exhaustiveness guard.
#
# A new aggregate operator must be wired through every serve/merge
# switch that dispatches on the op, or it silently degrades (loads as
# Sum, serves no sketches, ...). The package-level contract (String,
# Holistic, Combine, AggOps ordering) is pinned by
# TestAggOpsExhaustive in internal/record; this script greps the
# cross-package switch sites that a Go compiler cannot check for
# exhaustiveness, then runs vet and the guard test.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Every operator listed in record.AggOps() ...
ops=$(sed -n 's/.*return \[\]AggOp{\(.*\)}.*/\1/p' internal/record/agg.go | tr -d ' ' | tr ',' '\n')
if [ -z "$ops" ]; then
  echo "lint-aggop: could not extract AggOps() from internal/record/agg.go" >&2
  exit 1
fi

# ... must appear in the public enum mapping (rolap.go: Aggregate.op)
# and the snapshot load mapping (persist.go: LoadCube), or cubes built
# or loaded with the new op fall through to Sum.
for op in $ops; do
  for f in rolap.go persist.go; do
    if ! grep -q "record\.$op\b" "$f"; then
      echo "lint-aggop: record.$op missing from $f" >&2
      fail=1
    fi
  done
done

# Every sketch kind must be dispatched by the sketch constructor and
# the blob decoder (internal/sketch/agg.go), or holistic state of that
# kind cannot be opened or read back from a slice's state column.
kinds=$(grep -o 'Kind[A-Z][A-Za-z]*' internal/sketch/sketch.go | sort -u)
if [ -z "$kinds" ]; then
  echo "lint-aggop: could not extract sketch kinds from internal/sketch/sketch.go" >&2
  exit 1
fi
for kind in $kinds; do
  for fn in newSketch decode; do
    body=$(sed -n "/^func $fn(/,/^}/p" internal/sketch/agg.go)
    if [ -z "$body" ]; then
      echo "lint-aggop: func $fn not found in internal/sketch/agg.go" >&2
      exit 1
    fi
    if ! grep -q "$kind\b" <<<"$body"; then
      echo "lint-aggop: sketch.$kind missing from $fn" >&2
      fail=1
    fi
  done
done

# Holistic ops may never reach an Op.Combine call without sketch
# state: the only bare-op aggregation entry points allowed outside
# internal/record and tests are the *Op wrappers themselves.
if grep -rn --include='*.go' 'record\.\(AggregateSortedOp\|MergeSortedAggregateOp\)' \
    --exclude='*_test.go' internal/core internal/ingest internal/queryengine ./*.go 2>/dev/null; then
  echo "lint-aggop: bare-op aggregation in a holistic-capable path; use the Agg variants" >&2
  fail=1
fi

[ "$fail" -eq 0 ] || exit 1

go vet ./internal/record/ ./internal/sketch/ .
go test -run 'TestAggOpsExhaustive|TestAggSeal' ./internal/record/ >/dev/null

echo "lint-aggop: OK"
