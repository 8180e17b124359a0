#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build specbench from the
# checkout's sources, then run it with the driver's arguments. Everything
# the build writes stays under .bench_build/ in the checkout — the Go
# build cache, module path and telemetry directory included — so the
# benchmark reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/config/go/telemetry"
# A fresh telemetry directory makes the first go command start a detached
# sidecar child that outlives it; mode "off" stops that, so no process is
# left behind when this script exits.
echo off > "$build/config/go/telemetry/mode"
env GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$build/specbench" ./cmd/specbench
exec "$build/specbench" "$@"
