#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload atpg-paper --seed 0 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and the service workload's journal stay under .bench_build/ in the
# current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
