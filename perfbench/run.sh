#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload offline-toxic --seed 1 --seconds 25 --trace 0
# Every build product and Go cache lives under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
