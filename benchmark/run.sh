#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement. Run it from
# the root of a checkout; arguments go to teva-bench, e.g.
#
#   bash benchmark/run.sh --workload quick --seed 0xF00D --seconds 15 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/benchmark" && go build -o "$out/teva-bench" .)
exec "$out/teva-bench" "$@"
