#!/usr/bin/env bash
# Builds the benchmark (its own module, bench/go.mod) and runs it from the
# root of the checkout. Everything it writes — the Go build cache, the two
# binaries, the span dumps — stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload hub_point --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh                      # all four workloads, traced
#   bash bench/run.sh -smoke               # seconds-long self-check
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out"

# Keep the go command inside the checkout too: build cache, module cache,
# its per-user env file and its telemetry counters.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$bench_dir" && go build -buildvcs=false -o "$out/rnnbench" .)
cd "$root"
exec "$out/rnnbench" "$@"
