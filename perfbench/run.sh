#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload congested-random --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
