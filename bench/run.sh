#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the repo
# root, passing every argument through:
#
#   bash bench/run.sh --workload campaign-cold --seed 0 --seconds 15 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Every build product, the Go build cache, GOPATH, the toolchain's
# config directory (where it keeps telemetry counters) and temporary
# files stay under .bench_build/ in the checkout, and the toolchain is
# kept offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
