#!/bin/sh
# Runs the orchestrator benchmark suite (the paper-figure reproductions
# in bench_test.go at the repo root) with memory profiling and prints
# the `go test -bench` table.
set -eu
cd "$(dirname "$0")/.."

go test -bench=. -benchmem -run='^$' .
