#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload retrain|relabel|upload --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, span files and result files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an NDPipe checkout" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || true)
exec "$build/bin/perfbench" --commit "$commit" "$@"
