#!/bin/sh
# Prints the line count every size claim quotes: non-test Go outside
# benchmark/ (a module of its own), per package directory and in total.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' |
	xargs wc -l | awk '$2 != "total" {
		dir = $2; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir)
		if (dir == "") dir = "."
		n[dir] += $1; total += $1
	} END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total (non-test Go outside benchmark/)\n", total
	}'
