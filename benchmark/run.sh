#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the driver's arguments. BENCHMARK.json names this script as the
# command; run it from the root of the repo:
#
#   bash benchmark/run.sh --workload mmap_aged --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind goes under .bench_build in the
# checkout — the Go build cache and the go command's own configuration
# and telemetry directories included — so a run reads and writes
# nothing outside it. The module has no dependencies: the build needs
# no network and no module cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
# With telemetry in its default "local" mode the go command starts, once
# a day per configuration directory, a detached sidecar process that
# outlives it (it is what is left running when the build fails at once,
# as in a checkout without go.mod). Mode "off" starts none.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
