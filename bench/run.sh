#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from any directory.
# Everything the build writes — the binary, Go's build cache, its temporary
# files — goes under .bench_build/ at the repository root, so a run touches
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/dmtp-bench" .
exec "$build/dmtp-bench" "$@"
