#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root;
# arguments pass through (--workload, --seed, --seconds, --trace). The
# binary, the Go build cache and the benchmark's own files stay in
# .bench_build/ under the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
