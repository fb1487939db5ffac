#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mainnet --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), so the run
# writes nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out-dir "$out" "$@"
