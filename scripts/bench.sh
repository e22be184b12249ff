#!/bin/sh
# bench.sh — run the bench_test.go benchmarks and emit the machine-readable
# JSON baseline scripts/bench_diff.sh gates allocs/op against. Performance
# claims are made on bench/ (see bench/README.md), not on these records.
#
# Usage:
#   scripts/bench.sh                  # all benchmarks, 1s each -> BENCH_1.json
#   BENCH_PATTERN='Kernel' scripts/bench.sh
#   BENCH_TIME=2s BENCH_COUNT=3 BENCH_OUT=out.json scripts/bench.sh
#
# BENCH_TIME defaults to 1s (real averaged iterations). The old default of
# 1x produced iterations:1 records — single-iteration numbers are far too
# noisy to gate a perf trajectory on.
#
# Output: a JSON array of {"name", "iterations", "ns_per_op", "bytes_per_op",
# "allocs_per_op"} objects, one per benchmark line (repeated names mean
# BENCH_COUNT > 1). The raw `go test` output is left next to it as <out>.txt
# (not committed).
set -eu

cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-.}"
TIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-1}"
OUT="${BENCH_OUT:-BENCH_1.json}"
RAW="${OUT%.json}.txt"

echo "bench.sh: go test -run '^$' -bench '$PATTERN' -benchmem -benchtime $TIME -count $COUNT ." >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" -count "$COUNT" -timeout 60m . | tee "$RAW"

# Benchmark lines look like:
#   BenchmarkFoo-8   	      10	 123456 ns/op	    4096 B/op	      12 allocs/op
# (B/op and allocs/op are present because of -benchmem).
awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (bytes == "")  bytes = 0
    if (allocs == "") allocs = 0
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, iters, ns, bytes, allocs
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$RAW" > "$OUT"

N=$(grep -c '"name"' "$OUT" || true)
echo "bench.sh: wrote $N benchmark records to $OUT (raw output in $RAW)" >&2
