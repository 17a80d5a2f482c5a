#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload serve-udp --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, model copies and span dumps all live under
# .bench_build/ in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d e2ebench ]]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/ not found in $PWD)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/e2ebench" ./e2ebench
exec "$out/e2ebench" "$@"
