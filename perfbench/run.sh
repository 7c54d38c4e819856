#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload rw-uniform --seed 7 --seconds 10 --trace 0
#
# Build caches, the binary, data files, results and spans all live under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root: the module under test (go.mod, internal/) is missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
tmp="$build/perfbench.$$"
(cd "$root/perfbench" && go build -o "$tmp" .)
mv -f "$tmp" "$build/perfbench"
exec "$build/perfbench" --out "$build" "$@"
