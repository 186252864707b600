#!/bin/sh
# Prints the line count every size claim quotes: non-test Go outside
# benchmark/ (a module of its own), per package directory and in total.
# A last line counts the knobs: exported fields of the *Options, *Config
# and *Policy structs under internal/, exported With* functional options,
# and flag definitions under cmd/.
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
fields=$(find internal -name '*.go' -not -name '*_test.go' | xargs awk '
	/^type [A-Za-z0-9_]*(Options|Config|Policy) struct \{/ { in_struct = 1; next }
	in_struct && /^}/ { in_struct = 0; next }
	in_struct && /^\t[A-Z]/ {
		names = $0; sub(/^\t/, "", names)
		if (names ~ /^[A-Za-z0-9_]+(, [A-Za-z0-9_]+)* /) sub(/ [^,].*$/, "", names)
		n += split(names, parts, ", ")
	}
	END { print n + 0 }')
options=$(find internal cmd -name '*.go' -not -name '*_test.go' | xargs cat | grep -c '^func With[A-Z]' || true)
flags=$(find cmd -name '*.go' -not -name '*_test.go' | xargs cat |
	grep -oE 'flag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var|BoolVar|IntVar|Int64Var|UintVar|Uint64Var|StringVar|Float64Var|DurationVar)\(' |
	wc -l | tr -d ' ')
printf '%7d  knobs (%d option/config/policy fields under internal/, %d With* options, %d cmd/ flags)\n' \
	$((fields + options + flags)) "$fields" "$options" "$flags"
