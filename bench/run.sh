#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ at the root of the checkout, so a
# run reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOWORK=off
(cd "$here" && go build -o "$out/rolapbench" .)
exec "$out/rolapbench" "$@"
