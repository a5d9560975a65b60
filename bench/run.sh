#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current checkout
# (Go's build cache included, so nothing is written outside it) and runs it
# with the given arguments. BENCHMARK.json's command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/dart-bench" .) >&2
cd "$root"
exec "$build/dart-bench" "$@"
