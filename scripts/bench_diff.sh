#!/bin/sh
# bench_diff.sh — guard the allocation counts of the kernels and of the
# simulator/experiment engine against the committed baseline. Runs a short
# pass of the Kernel*, Fig*, *Simulate*, TraceBuild* and AblationBlockSize
# benchmarks and compares allocs/op of each record against the baseline JSON
# (BENCH_1.json by default, recorded by scripts/bench.sh). Allocation counts
# are deterministic, so an increase beyond the amortization slack (+10%,
# minimum +2 to absorb setup allocations spread over fewer iterations at
# short benchtime) fails with exit 1. The exact zero-alloc invariants are
# pinned even tighter by the internal/kerneltest AllocsPerRun gates. For the
# Fig* records this is what keeps a sweep cell O(chunks): a change that
# allocates per cell or per chunk again moves them by 10x or more.
#
# ns/op is printed by the run but not compared: time is judged on bench/
# (BENCHMARK.json), on inputs large enough to time, not on a 100 ms pass of
# scale-8 graphs against numbers recorded on another day.
#
# Usage:
#   scripts/bench_diff.sh [baseline.json]
#   BENCH_DIFF_TIME=200ms BENCH_DIFF_PATTERN='Kernel' scripts/bench_diff.sh
set -eu

cd "$(dirname "$0")/.."

BASE="${1:-BENCH_1.json}"
PATTERN="${BENCH_DIFF_PATTERN:-Kernel|Fig|Simulate|TraceBuild|AblationBlockSize}"
TIME="${BENCH_DIFF_TIME:-100ms}"
RAW="${BENCH_DIFF_RAW:-bench_diff.txt}"

if [ ! -f "$BASE" ]; then
    echo "bench_diff.sh: baseline $BASE not found" >&2
    exit 2
fi

echo "bench_diff.sh: go test -run '^$' -bench '$PATTERN' -benchmem -benchtime $TIME ." >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" -timeout 30m . | tee "$RAW"

python3 - "$BASE" "$RAW" "$PATTERN" <<'EOF'
import json, re, sys

base = {}
for rec in json.load(open(sys.argv[1])):
    base[rec["name"]] = max(base.get(rec["name"], 0), rec["allocs_per_op"])

current = {}
for line in open(sys.argv[2]):
    f = line.split()
    if not f or not f[0].startswith("Benchmark"):
        continue
    name = f[0].rsplit("-", 1)[0]
    for i in range(2, len(f) - 1):
        if f[i + 1] == "allocs/op":
            current[name] = float(f[i])

fail = False
for name, cur in sorted(current.items()):
    b = base.get(name)
    if b is None:
        print(f"bench-diff: {name}: no baseline record (new benchmark, informational)")
        continue
    ceiling = b + max(2.0, b * 0.10)
    if cur > ceiling:
        print(f"bench-diff: FAIL {name}: {cur:.0f} allocs/op vs baseline "
              f"{b:.0f} (ceiling {ceiling:.0f}) — allocation regression")
        fail = True
missing = sorted(set(n for n in base if re.search(sys.argv[3], n)) - set(current))
for name in missing:
    print(f"bench-diff: WARN {name}: in baseline but not in this run")
sys.exit(1 if fail else 0)
EOF
