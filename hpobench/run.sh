#!/usr/bin/env bash
# Builds hpobench from the checkout it is run in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash hpobench/run.sh --workload study-burst --seed 1 --seconds 35 --trace 0
#
# Every build and run artefact (Go build cache, binary, run journals)
# stays under .bench_build in the checkout. Without the module's sources
# the build fails and the script exits non-zero before running anything.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$build/hpobench" ./hpobench
exec "$build/hpobench" "$@"
