#!/usr/bin/env bash
# Builds the benchmark and cmd/schedserve from the checkout this script
# sits in, then runs the benchmark from the checkout root with the given
# flags (see bench/README.md). Build outputs, caches and result files all
# go to .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain's caches and config inside the checkout and never
# fetch a toolchain or a module.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Every measured process runs with the runtime's default GC and
# scheduler settings.
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS

cd "$root"
go build -o "$build/schedserve" ./cmd/schedserve
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
