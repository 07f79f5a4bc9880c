#!/bin/sh
# bench_smoke.sh — CI smoke for the two committed benchmark artifacts.
#
# 1. BenchmarkWriteMixStorm: gate the cached-read p50 ratio between the
#    per-predicate incremental arm and the global nuke-the-cache baseline.
#    The baseline lives in the benchmark: a handler wrapper drops the whole
#    result cache after every acknowledged write.
# 2. BenchmarkOperationalVsReduction: gate the model-construction time
#    ratio between the interpreted reduction arm and the compiled engine
#    at the largest fact count (smaller sizes are fixed-cost-dominated;
#    the [facts=320] filter pins the assertion to the scale point).
# 3. BenchmarkOverloadStorm: gate the goodput ratio between admission
#    control on and the no-admission baseline under a 5x-capacity storm.
#
# The smoke gates are deliberately looser than the committed artifacts
# (>=2x vs >=5x for the first two, >=1.2x vs >=1.5x for overload): short
# runs are noisy and the smoke only has to catch the fast path regressing
# to baseline behaviour, not re-certify the headline numbers. Regenerate
# the committed artifacts with:
#
#   go test ./internal/server -run '^$' -bench BenchmarkWriteMixStorm \
#       -benchtime 500x -count=1 | tee /tmp/bench_incremental.txt
#   go run ./cmd/benchreport -in /tmp/bench_incremental.txt \
#       -json BENCH_incremental.json \
#       -gate 'WriteMixStorm/invalidation/incremental:p50-read-ns>=5'
#
#   go test . -run '^$' -bench BenchmarkOperationalVsReduction \
#       -benchtime 100x -count=1 | tee /tmp/bench_compiled.txt
#   go test . -run '^$' -bench BenchmarkBeliefModesScaling \
#       -count=1 | tee -a /tmp/bench_compiled.txt
#   go run ./cmd/benchreport -in /tmp/bench_compiled.txt \
#       -json BENCH_compiled.json \
#       -gate 'OperationalVsReduction[facts=320]/engine/compiled:model-ns>=5'
#
#   go test ./internal/server -run '^$' -bench BenchmarkOverloadStorm \
#       -benchtime 2000x -count=1 | tee /tmp/bench_overload.txt
#   go run ./cmd/benchreport -in /tmp/bench_overload.txt \
#       -json BENCH_overload.json \
#       -gate 'OverloadStorm/admission/off:goodput>=1.5'
#
# Run via `make bench-smoke`.
set -eu

GO=${GO:-go}
BENCHTIME=${BENCH_SMOKE_TIME:-120x}
GATE=${BENCH_SMOKE_GATE:-'WriteMixStorm/invalidation/incremental:p50-read-ns>=2'}
COMPILED_BENCHTIME=${BENCH_SMOKE_COMPILED_TIME:-10x}
COMPILED_GATE=${BENCH_SMOKE_COMPILED_GATE:-'OperationalVsReduction[facts=320]/engine/compiled:model-ns>=2'}
OVERLOAD_BENCHTIME=${BENCH_SMOKE_OVERLOAD_TIME:-800x}
OVERLOAD_GATE=${BENCH_SMOKE_OVERLOAD_GATE:-'OverloadStorm/admission/off:goodput>=1.2'}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

$GO test ./internal/server -run '^$' -bench BenchmarkWriteMixStorm \
    -benchtime "$BENCHTIME" -count=1 | tee "$TMP/bench.txt"
$GO run ./cmd/benchreport -in "$TMP/bench.txt" -gate "$GATE"

$GO test . -run '^$' -bench 'BenchmarkOperationalVsReduction/facts=320' \
    -benchtime "$COMPILED_BENCHTIME" -count=1 | tee "$TMP/bench_compiled.txt"
$GO run ./cmd/benchreport -in "$TMP/bench_compiled.txt" -gate "$COMPILED_GATE"

$GO test ./internal/server -run '^$' -bench BenchmarkOverloadStorm \
    -benchtime "$OVERLOAD_BENCHTIME" -count=1 | tee "$TMP/bench_overload.txt"
$GO run ./cmd/benchreport -in "$TMP/bench_overload.txt" -gate "$OVERLOAD_GATE"
echo "bench-smoke: ok"
