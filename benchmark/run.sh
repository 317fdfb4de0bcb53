#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's arguments.
# Everything the build writes — binary, Go build cache, the go tool's
# temporary files — stays under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# Pure Go, with or without a C compiler on the host, and no toolchain download.
export CGO_ENABLED=0 GOTOOLCHAIN=local
cd "$here" # the binary writes its traces and result files to ./out
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
