#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. The Go build cache, temporary files and the binary all live
# under .bench_build, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$build/rcmpbench" .)
cd "$root"
exec "$build/rcmpbench" "$@"
