#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload cold-campaign --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every temporary file stay under .bench_build/ in the current directory,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The module has no dependencies: never download a module or toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/wishbranch-bench" ./bench
exec "$build/wishbranch-bench" "$@"
