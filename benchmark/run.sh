#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# The go build cache, module cache and temporary files are kept there too,
# so nothing outside the checkout is read or written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$out/mpibench" .
exec "$out/mpibench" "$@"
