#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the command named in
# BENCHMARK.json: everything it writes (Go build cache, binary, trace files)
# stays inside the checkout, under .bench_build/ and benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/gossipbench" .)
cd "$root"
exec "$build/gossipbench" "$@"
