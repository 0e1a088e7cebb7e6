#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload campus --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and trace file stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build) so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off

go build -C perfbench -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" -out "$out/perfbench" "$@"
