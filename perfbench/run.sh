#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sssp-16x16 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (or $CARGO_TARGET_DIR when set), build cache included.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"
# Keep the Go toolchain's caches, temporary files and telemetry counters
# (under the user config directory) inside the build directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out" "$@"
