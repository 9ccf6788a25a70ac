#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload router-radix --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, traces and scratch cache directories all
# stay under .bench_build in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
