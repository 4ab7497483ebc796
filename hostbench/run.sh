#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash hostbench/run.sh --workload svm-scaling --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the repository root.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/hostbench" && go build -o "$build/hostbench" .)
# Traced runs write their spans and CPU profile under $build/traces unless
# the arguments name another --out directory.
exec "$build/hostbench" --out "$build/traces" "$@"
