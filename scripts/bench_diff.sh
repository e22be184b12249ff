#!/bin/sh
# bench_diff.sh — guard the perf trajectory of the kernels and of the
# simulator/experiment engine against the committed baseline. Runs a short
# pass of the Kernel*, Fig*, *Simulate*, TraceBuild* and AblationBlockSize
# benchmarks and compares each record against the baseline JSON
# (BENCH_1.json by default, recorded by scripts/bench.sh):
#
#   - ns/op is INFORMATIONAL: short -benchtime runs on shared CI boxes are
#     noisy, so drifts beyond the ±40% tolerance are printed as warnings
#     but never fail the job;
#   - allocs/op is GATING: allocation counts are deterministic, so an
#     increase beyond the amortization slack (+10%, minimum +2 to absorb
#     setup allocations spread over fewer iterations at short benchtime)
#     fails with exit 1. The exact zero-alloc invariants are pinned even
#     tighter by the internal/kerneltest AllocsPerRun gates. For the Fig*
#     records this is what keeps a sweep cell O(chunks): a change that
#     allocates per cell or per chunk again moves them by 10x or more.
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
    base.setdefault(rec["name"], []).append(rec)
base = {name: {
    "ns": sum(r["ns_per_op"] for r in recs) / len(recs),
    "allocs": max(r["allocs_per_op"] for r in recs),
} for name, recs in base.items()}

current = {}
for line in open(sys.argv[2]):
    f = line.split()
    if not f or not f[0].startswith("Benchmark"):
        continue
    name = f[0].rsplit("-", 1)[0]
    ns = allocs = None
    for i in range(2, len(f) - 1):
        if f[i + 1] == "ns/op":
            ns = float(f[i])
        if f[i + 1] == "allocs/op":
            allocs = float(f[i])
    if ns is not None:
        current[name] = {"ns": ns, "allocs": allocs or 0.0}

fail = False
for name, cur in sorted(current.items()):
    b = base.get(name)
    if b is None:
        print(f"bench-diff: {name}: no baseline record (new benchmark, informational)")
        continue
    ratio = cur["ns"] / b["ns"] if b["ns"] else 0.0
    if ratio > 1.40 or ratio < 0.60:
        print(f"bench-diff: WARN {name}: {cur['ns']:.0f} ns/op vs baseline "
              f"{b['ns']:.0f} ({ratio:.2f}x, outside +-40%; informational)")
    ceiling = b["allocs"] + max(2.0, b["allocs"] * 0.10)
    if cur["allocs"] > ceiling:
        print(f"bench-diff: FAIL {name}: {cur['allocs']:.0f} allocs/op vs baseline "
              f"{b['allocs']:.0f} (ceiling {ceiling:.0f}) — allocation regression")
        fail = True
missing = sorted(set(n for n in base if re.search(sys.argv[3], n)) - set(current))
for name in missing:
    print(f"bench-diff: WARN {name}: in baseline but not in this run")
sys.exit(1 if fail else 0)
EOF
