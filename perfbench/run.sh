#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload serve-zoo --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, span dumps) stays in
# .bench_build/ at the checkout root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's env file and telemetry
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
