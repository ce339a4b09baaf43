#!/usr/bin/env bash
# Builds hostbench from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash hostbench/run.sh --workload paper-fig23 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write goes under the build directory
# ($CARGO_TARGET_DIR, default .bench_build at the checkout root): the Go
# build cache, the binary, and the deterministic-count records that make
# two runs of one build check each other.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/modcache \
	XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

(cd "$root/hostbench" && go build -o "$build/hostbench" .)
exec "$build/hostbench" -counts-dir "$build/counts" "$@"
