#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload compile-rz --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build products and the Go caches live
# under .bench_build (or $CARGO_TARGET_DIR when set), so nothing is
# written outside the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build_dir=${CARGO_TARGET_DIR:-.bench_build}
case $build_dir in
/*) ;;
*) build_dir=$root/$build_dir ;;
esac
mkdir -p "$build_dir"

export GOCACHE=$build_dir/go-cache
export GOPATH=$build_dir/go-path
export GOMODCACHE=$build_dir/go-path/pkg/mod
export XDG_CONFIG_HOME=$build_dir/config
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

bin=$build_dir/perfbench
go -C "$root/perfbench" build -o "$bin.$$" . || { rm -f "$bin.$$"; exit 1; }
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
