#!/usr/bin/env bash
# Builds the harness and cmd/hostprof from source into .bench_build/ at
# the repository root, then runs the harness with the arguments given.
# Everything Go writes — build cache, temporary files, binaries — stays
# inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/hostprof-bench" .)
cd "$root"
exec "$build/hostprof-bench" "$@"
