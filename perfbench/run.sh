#!/usr/bin/env bash
# run.sh — build and run the repository benchmark from the repository
# root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that imports the
# simulator through a replace of the enclosing module. Build outputs,
# the Go build cache and written traces all stay in .bench_build/ at the
# repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0 \
	GIT_CEILING_DIRECTORIES="$(dirname "$root")"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
