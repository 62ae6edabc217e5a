#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of the checkout. Everything the Go toolchain writes (build cache,
# temporary files, telemetry counters, the binary) stays inside the checkout,
# under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
cd "$root"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
