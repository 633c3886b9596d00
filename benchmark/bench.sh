#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/bench.sh --workload scan-100k --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, temp
# files and span output all stay under .bench_build/ in the current
# directory, and the toolchain is never downloaded.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/autocomp-bench" .
exec "$out/autocomp-bench" "$@"
