#!/usr/bin/env bash
# loc.sh — non-test Go line count outside bench/, per top-level
# directory ("." is the root package). The simplicity PRs quote its
# before/after output as their "less code, nothing moved" criterion.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         n = split($2, part, "/")
         dir = (n == 2) ? "." : part[2]
         lines[dir] += $1; total += $1
       }
       END {
         for (dir in lines) printf "%7d %s\n", lines[dir], dir | "sort -k2"
         close("sort -k2")
         printf "%7d total\n", total
       }'
