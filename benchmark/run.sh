#!/usr/bin/env bash
# Builds prefserve and the benchmark from source into benchmark/out/ and
# runs the benchmark. Start it from the repository root:
#
#   bash benchmark/run.sh --workload join_pref --seed 42 --seconds 15 --trace 0
#
# Everything the build and the run leave behind — the Go build cache
# included — stays under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/benchmark/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/prefserve" ./cmd/prefserve
go build -C benchmark -o "$out/prefbenchmark" .
exec "$out/prefbenchmark" -server "$out/prefserve" -out "$out" "$@"
