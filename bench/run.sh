#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; this is the
# command BENCHMARK.json names. Everything the Go toolchain writes —
# build cache, temporary files, module cache, the binary — stays under
# bench/out/build/ in the checkout, and the program's own traces and
# scratch data directories under bench/out/.
#
#   bash bench/run.sh --workload paper_warm --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a certsql checkout (go.mod and bench/go.mod are needed)" >&2
	exit 2
fi

build="$(pwd)/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# -mod=mod lets the toolchain reconcile bench/go.mod with the parent
# module's (its go line, say) instead of refusing to build.
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOWORK=off

export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

cd bench
go build -buildvcs=false -o "$build/certsql-bench" .
exec "$build/certsql-bench" "$@"
