#!/usr/bin/env bash
# Builds the host-time benchmark from the checkout it is run in and runs
# it with the given arguments:
#
#   bash hostbench/run.sh --workload fleet-fabric --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the Go tool's own state stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
