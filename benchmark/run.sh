#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything it writes stays in the checkout: the build and the Go build
# cache under .bench_build/, traces and temporary data under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's own files in the checkout too, and off the network.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTELEMETRYDIR="$build/go-telemetry" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$here" && go build -o "$build/llmms-bench" .)
cd "$root"
exec "$build/llmms-bench" "$@"
