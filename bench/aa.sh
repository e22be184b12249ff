#!/bin/sh
# aa.sh — run the A/A check (two sets of untraced runs of this commit, see
# README.md) and keep its Markdown output as bench/AA.md. Arguments go to
# the check: bench/aa.sh -runs 5 -workload mesh-small. Exits non-zero when a
# metric×workload pair is outside its bound in BENCHMARK.json.
set -u
cd "$(dirname "$0")/.."
status=0
bash bench/run.sh -aa "$@" > bench/AA.md || status=$?
cat bench/AA.md
exit $status
