#!/usr/bin/env bash
# Builds the benchmark and the backboned daemon from this checkout and
# runs the benchmark; arguments go to backbonebench, e.g.
#
#   bash backbonebench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout: binaries, the Go build cache, corpora, logs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/backbonebench" && go build -o "$build/backbonebench" . && go build -o "$build/backboned" repro/cmd/backboned)
exec "$build/backbonebench" -daemon "$build/backboned" -workdir "$build/work" "$@"
