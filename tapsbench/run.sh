#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Arguments pass through to the binary, e.g.
#
#   bash tapsbench/run.sh --workload ctl-steady --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, the decision
# logs and the traces.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export XDG_CONFIG_HOME="$build/config"
go -C "$here" build -o "$build/tapsbench" .
cd "$root"
exec "$build/tapsbench" --out "$build/out" "$@"
