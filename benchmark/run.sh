#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays inside the checkout: the Go
# build cache, Go's temp files and the benchmark's own scratch files go to
# .bench_build/, results and traces to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$here/out"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/tagperf" .)
cd "$root"
exec "$build/tagperf" -outdir "$here/out" "$@"
