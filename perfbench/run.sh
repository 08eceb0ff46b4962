#!/usr/bin/env bash
# Builds the benchmark and the fsicp and fsicpd commands from this
# checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cold-compile --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Build outputs, the Go build cache, work
# files and traces all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fsicp" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full checkout (go.mod, cmd/fsicp and perfbench/ needed)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/bin" "$build/perfbench"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bin/" ./cmd/fsicp ./cmd/fsicpd
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -out "$build/perfbench" "$@"
