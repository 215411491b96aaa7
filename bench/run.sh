#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload sim_hit_heavy --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, Go's build cache, the
# compiler's temporary files and the go command's own configuration and
# telemetry counters all live in .bench_build/ at the root, so a run
# writes nothing outside the checkout. The benchmark is a module of its
# own that builds against the repository one directory up; without it
# the build fails and the script exits non-zero.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$here" build -o "$out/bench" .
exec "$out/bench" "$@"
