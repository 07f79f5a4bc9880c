#!/usr/bin/env bash
# Builds the multilogd request-path benchmark from source and runs it from
# the repository root:
#
#   bash perfbench/run.sh --workload read-cached --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the WAL data
# directories and the span dumps. The benchmark module reaches the code it
# measures through the `replace repro => ../` line of perfbench/go.mod, so
# outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
