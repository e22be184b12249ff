#!/bin/sh
# loc.sh — print the repository's non-test Go line count: every tracked .go
# file outside bench/ (its own module, pinned by BENCHMARK.json) that is
# neither a _test.go file nor an analyzer fixture under testdata/. This is
# the number simplicity PRs quote in CHANGES.md; CI prints it after the
# tests so every PR quotes it by the same formula.
set -eu

cd "$(dirname "$0")/.."

git ls-files '*.go' | grep -v '_test.go$' | grep -v '^bench/' | grep -v testdata | xargs cat | wc -l
