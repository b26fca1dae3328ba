#!/usr/bin/env bash
# Builds the acebench binary from this checkout and runs it with the
# given arguments, from the repository root:
#
#   bash acebench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and module caches, the go command's telemetry
# counters (kept under the user config directory), the binary, the
# checkpoint store and traced runs' span files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/acebench" && go build -o "$out/acebench" .)
exec "$out/acebench" --out "$out" "$@"
