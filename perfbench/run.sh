#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product, the Go build
# cache and the go command's own config and telemetry files included,
# goes under .bench_build/ in the current directory, so nothing outside
# the checkout is written. Without the simulator's
# sources beside perfbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: no simulator sources next to $here" >&2
	exit 2
fi
# Provenance: the commit of the repository being measured, if the
# current directory is the top of a git work tree.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$commit+dirty"
fi
export PERFBENCH_COMMIT="$commit"

go -C "$here" build -buildvcs=false -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
