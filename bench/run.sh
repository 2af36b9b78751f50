#!/usr/bin/env bash
# Builds guavabench from source and runs it with the given flags. Run it from
# the repository root:
#
#   bash bench/run.sh --workload extract-hot --seed 42 --seconds 20 --trace 0
#
# The build and everything it caches stay in .bench_build/ under the current
# directory; the toolchain is used as installed and nothing is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go -C bench build -o "$out/guavabench" .
exec "$out/guavabench" "$@"
