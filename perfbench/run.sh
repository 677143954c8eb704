#!/usr/bin/env bash
# Benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload classify_el --seed 1 --seconds 20 --trace 0
#
# It builds owlclass and owld from this checkout plus the harness in
# perfbench/harness, then runs one workload. Every build artifact, the Go
# build cache and the run's scratch files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/owlclass" ] || [ ! -d "$root/cmd/owld" ]; then
	echo "perfbench: run from the root of a parowl checkout (go.mod and cmd/ not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/xdg"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export XDG_CONFIG_HOME="$build/xdg" XDG_CACHE_HOME="$build/xdg"

go build -o "$build/bin/" ./cmd/owlclass ./cmd/owld
(cd "$root/perfbench/harness" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
