#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; every argument goes to the benchmark, for example
#
#   bash bbbench/run.sh --workload sim-steady --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the traced runs' spans stay under
# .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# Everything the go command writes (build cache, temporary files, module
# cache, its config and telemetry) goes under $out; nothing is downloaded.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bbbench && go build -o "$out/bbbench" .)
exec "$out/bbbench" "$@"
