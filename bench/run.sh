#!/usr/bin/env bash
# Builds the benchmark into .bench_build (or $CARGO_TARGET_DIR when set)
# and runs it from the repository root with the given arguments:
#
#   bash bench/run.sh --workload kernel --seed 1 --seconds 15 --trace 0
#
# The Go build cache and temporary files stay inside the build directory,
# and the build uses only the local toolchain and the module's own sources.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
