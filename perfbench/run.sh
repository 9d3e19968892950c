#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload flat32 --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache) stays under the build
# directory inside the checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
