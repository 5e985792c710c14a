#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ at the root of the checkout (nothing is written elsewhere:
# the Go build cache lives there too) and runs it with the caller's flags.
# The harness builds cmd/skylineserve itself the same way.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOMAXPROCS=2
go build -C "$here" -o "$out/bin/skylinebenchmark" .
cd "$root"
exec "$out/bin/skylinebenchmark" "$@"
