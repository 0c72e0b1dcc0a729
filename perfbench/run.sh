#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root:
#   bash perfbench/run.sh --workload social-rw --seed 1 --seconds 10 --trace 0
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory, Go's build cache included.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
