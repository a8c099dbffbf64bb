#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload channel-w --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache and configuration are pointed
# there, and the toolchain is kept local with the module proxy off (the
# benchmark needs no module outside this repository).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
