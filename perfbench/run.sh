#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-230 --seed 1 --seconds 60 --trace 0
#
# Everything it builds or caches goes under .bench_build/perfbench. The
# traced worker imports internal packages and is built only for --trace 1,
# so an internal refactor that breaks it cannot stop the untraced run.
set -euo pipefail

root=$(pwd)
src="$root/perfbench"
if [ ! -f "$src/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

traced=0
prev=
for a in "$@"; do
	case "$prev" in --trace | -trace) traced=$a ;; esac
	case "$a" in --trace=* | -trace=*) traced=${a#*=} ;; esac
	prev=$a
done

(
	cd "$src"
	go build -o "$out/bin/" ./cmd/perfbench ./cmd/e2e
	if [ "$traced" = 1 ]; then
		go build -o "$out/bin/" ./cmd/traced
	fi
)
exec "$out/bin/perfbench" -bin "$out/bin" -root "$root" -out "$out/results" "$@"
