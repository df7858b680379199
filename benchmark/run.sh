#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there; every argument goes to the benchmark. The Go
# build cache and temporary files stay inside the checkout as well.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/pollux-benchmark" .
exec "$build/pollux-benchmark" "$@"
