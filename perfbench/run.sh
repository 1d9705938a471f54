#!/usr/bin/env bash
# Builds orchestra-node and the benchmark from this checkout, then runs
# the benchmark with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload query-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's config and
# telemetry directory, and run scratch all stay under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/orchestra-node" ./cmd/orchestra-node
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -node-bin "$out/orchestra-node" -work "$out/work" "$@"
