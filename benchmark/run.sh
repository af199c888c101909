#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash benchmark/run.sh --workload corpus-bpe --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and all
# scratch files stay under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
