#!/bin/sh
# Prints, one a line as FILE:LINE: NAME, every Go-looking name that
# DESIGN.md or README.md puts in backticks and the tree's Go code neither
# declares nor uses, and exits 1 if there is one. Go-looking is a span
# that reads as an identifier, a qualified one (pkg.Name, Type.Method,
# (*Type).Method), or either called (Name(), Name(args)), with a dot or an
# upper-case letter in it; file names (transport.go, decisions.golden) are
# not. The name checked is the span's last segment, looked up among the
# words of every .go file in the repo with its comments removed. Exempt:
# a name on a line that says it was deleted, went or is gone, and the
# names in scripts/namecheck.allow (the name, a tab, the reason) — and
# every name there must still be one the check would flag, so the list
# cannot go stale. scripts/check.sh runs it.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
find . -name '*.go' -not -path './.git/*' | xargs awk '
	/^[ \t]*\/\// { next }
	{ sub(/[ \t]+\/\/.*$/, ""); print }' |
	grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tmp/words"
awk '!/^#/ && NF { print $1 }' scripts/namecheck.allow | sort -u >"$tmp/allowed"
reasonless=$(awk -F'\t' '!/^#/ && NF && $2 == "" { print $1 }' scripts/namecheck.allow)
if [ -n "$reasonless" ]; then
	echo "name check: allowlisted without a reason (name, a tab, the reason):" >&2
	echo "$reasonless" >&2
	exit 1
fi
# Every Go-looking span, as FILE:LINE: NAME, unless its line says the
# name is gone. A span may run over lines within a paragraph; fenced
# blocks are code, not names.
for doc in DESIGN.md README.md; do
	awk -v doc="$doc" '
	function check(span, line,   name) {
		sub(/^[*&]+/, "", span)
		sub(/\(.*\)$/, "", span)
		sub(/^\(\*?[A-Za-z_][A-Za-z0-9_]*\)\./, "", span)
		if (span !~ /^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$/) return
		if (span !~ /[.A-Z]/) return
		if (span ~ /\.(go|md|json|golden|sh|allow|txt|mod|sum|html|js|css|log|out|prof|pprof)$/) return
		name = span; sub(/.*\./, "", name)
		if (gone[line]) return
		printf "%s:%d: %s\n", doc, line, name
	}
	/^[ \t]*```/ { fenced = !fenced; open = 0; next }
	fenced { next }
	/^[ \t]*$/ { open = 0; next }
	{
		gone[NR] = tolower($0) ~ /(^|[^a-z])(deleted|went|gone)([^a-z]|$)/
		n = split($0, part, "`")
		for (i = 1; i <= n; i++) {
			if (i > 1) {
				if (open) { check(span, start); open = 0 } else { open = 1; span = ""; start = NR }
			}
			if (open) span = span (span == "" || i > 1 ? "" : " ") part[i]
		}
	}' "$doc"
done | sort -u >"$tmp/named"
awk -F': ' 'FILENAME == ARGV[1] { word[$1] = 1; next } !($2 in word)' "$tmp/words" "$tmp/named" >"$tmp/unknown"
awk -F': ' 'FILENAME == ARGV[1] { ok[$1] = 1; next } !($2 in ok)' "$tmp/allowed" "$tmp/unknown" >"$tmp/stale"
awk -F': ' '{ print $2 }' "$tmp/unknown" | sort -u | comm -13 - "$tmp/allowed" >"$tmp/unused"
status=0
if [ -s "$tmp/stale" ]; then
	echo "name check: named in backticks, declared and used nowhere in the tree's Go code:" >&2
	cat "$tmp/stale" >&2
	status=1
fi
if [ -s "$tmp/unused" ]; then
	echo "name check: allowlisted in scripts/namecheck.allow but found in Go code or named by no doc:" >&2
	cat "$tmp/unused" >&2
	status=1
fi
exit $status
