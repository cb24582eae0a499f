#!/bin/sh
# fma.sh — the arm64 fused multiply-add ratchet (ROADMAP item 4). The Go
# compiler fuses x*y + z into one FMADDD (or FMSUBD, FNMADDD, FNMSUBD) on
# arm64 unless the product is converted explicitly, float64(x*y) + z, and a
# fused sum rounds once where amd64 rounds twice, so each fusion in the
# estimator's arithmetic is a place where an arm64 answer can differ in its
# last bits. Per package outside benchmark/ this cross-compiles for arm64,
# counts the fused instructions in the package's own assembly and fails when
# a count exceeds the ceiling below. Lower a ceiling when a change removes
# fusions; never raise one.
#
#   scripts/fma.sh
set -eu
cd "$(dirname "$0")/.."
# Package directory and ceiling; every package not listed has 0.
ceilings='
internal/baseline 17
internal/block 1
internal/core 13
internal/extreme 3
internal/leverage 35
internal/metrics 2
internal/modulate 8
internal/repro 4
internal/stats 49
internal/workload 2
'
status=0
printf '%-28s %5s %7s\n' package fused ceiling
for pkg in $(go list ./... | grep -v '^isla/benchmark'); do
	dir=${pkg#isla}
	dir=${dir#/}
	[ -n "$dir" ] || dir=.
	asm=$(GOARCH=arm64 go build -gcflags="$pkg=-S" -o /dev/null "$pkg" 2>&1) || {
		printf '%s\n' "$asm" >&2
		exit 1
	}
	n=$(printf '%s\n' "$asm" | grep -cE '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' || true)
	ceiling=$(printf '%s\n' "$ceilings" | awk -v d="$dir" '$1 == d { print $2 }')
	ceiling=${ceiling:-0}
	printf '%-28s %5d %7d\n' "$dir" "$n" "$ceiling"
	if [ "$n" -gt "$ceiling" ]; then
		echo "$dir: $n fused multiply-adds on arm64, above its ceiling of $ceiling: write float64(x*y) + z" >&2
		status=1
	elif [ "$n" -lt "$ceiling" ]; then
		echo "$dir: $n fused multiply-adds, below its ceiling of $ceiling: lower the ceiling in scripts/fma.sh"
	fi
done
exit $status
