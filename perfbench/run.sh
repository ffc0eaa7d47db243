#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run leave behind goes under $CARGO_TARGET_DIR (default .bench_build):
# the Go build cache, the go command's temporary files, the binary and
# the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export GOTOOLCHAIN=local
export GOENV=off
export GOWORK=off
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out" "$@"
