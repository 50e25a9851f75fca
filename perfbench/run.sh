#!/usr/bin/env bash
# Builds the benchmark (perfbench) and the hyfdd daemon from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fd-ncvoter --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local GOWORK=off
export GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/hyfdd" hyfd/cmd/hyfdd)
exec "$out/perfbench" --hyfdd "$out/hyfdd" --workdir "$out" "$@"
