#!/usr/bin/env bash
# Builds the end-to-end Advance benchmark from source and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash advbench/run.sh --workload predictive-128 --seed 1 --seconds 10 --trace 0
#
# Every build output (binary, Go build cache, temporary files) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/advbench" && go build -o "$out/advbench" .)
exec "$out/advbench" "$@"
