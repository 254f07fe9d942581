#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload host-cold --seed 1 --seconds 10 --trace 0
#
# Everything the go tool and the benchmark write lands in .bench_build/
# under the current directory: build cache, module cache, telemetry and
# the benchmark's own scratch files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" "$@"
