#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root. Every
# file the Go toolchain and the run write stays under .bench_build/ in the
# checkout: build cache, the toolchain's telemetry counters (XDG_CONFIG_HOME),
# temp files, binaries, snapshots, WAL directories.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
