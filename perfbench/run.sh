#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-submit --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
