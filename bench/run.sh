#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the checkout root, then runs it from that root. The Go
# build cache, GOPATH and temp files are kept inside the checkout so the
# benchmark reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C bench -o "$build/bench" . >&2
exec "$build/bench" "$@"
