#!/bin/sh
# size.sh — the design-size ledger (ROADMAP aim 2). Per package: the non-test
# Go lines that are neither blank nor comment, and the exported top-level
# identifiers `go doc -short` lists. CI prints it on every commit.
#
#   scripts/size.sh                               every package in the module
#   scripts/size.sh internal/core internal/cluster
set -eu
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
	set -- $(go list -f '{{.Dir}}' ./... | sed "s|^$PWD||; s|^/||; s|^$|.|")
fi
printf '%-32s %7s %9s\n' package lines exported
total_lines=0
total_exported=0
for dir in "$@"; do
	files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -n "$files" ] || continue
	# shellcheck disable=SC2086 # the file list is meant to split
	lines=$(cat $files | awk '
		{ sub(/^[ \t]+/, "") }
		inblock { if (index($0, "*/")) inblock = 0; next }
		/^\/\*/ { if (!index($0, "*/")) inblock = 1; next }
		/^\/\// || /^$/ { next }
		{ n++ }
		END { print n + 0 }')
	exported=$(go doc -short "./$dir" 2>/dev/null | wc -l)
	printf '%-32s %7d %9d\n' "$dir" "$lines" "$exported"
	total_lines=$((total_lines + lines))
	total_exported=$((total_exported + exported))
done
printf '%-32s %7d %9d\n' total "$total_lines" "$total_exported"
