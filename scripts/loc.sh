#!/bin/sh
# Prints the non-test Go lines of each package outside perfbench/ (the
# benchmark is its own module) and hidden directories (build outputs),
# then their total: every line of every .go file but _test.go files.
#
#   scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*' | sort | xargs wc -l |
    grep -v ' total$' |
    awk '{ d = $2; sub(/\/[^\/]*$/, "", d); sub(/^\.\//, "", d); n[d] += $1; t += $1 }
        END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
