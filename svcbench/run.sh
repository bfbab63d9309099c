#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the root of the repository:
#
#   bash svcbench/run.sh --workload jobs --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the binary, the journals and the span files.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C svcbench -o "$out/svcbench" .
exec "$out/svcbench" --workdir "$out/svcbench-work" "$@"
