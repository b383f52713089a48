#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload live-point --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build cache,
# the binary, scratch heap files and WAL segments, and the trace dumps.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS="-mod=mod -buildvcs=false"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOENV=off
export GOWORK=off

# Without the repository around it (only BENCHMARK.json and this
# directory), the build fails and so does the run, before any result.
if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: $here/../go.mod not found: run from a full checkout" >&2
	exit 2
fi
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
