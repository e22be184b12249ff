#!/bin/sh
# lint.sh — run every static check CI runs, locally, in one shot:
#
#   go vet        stock correctness checks
#   staticcheck   style/correctness (skipped with a note if not installed;
#                 CI installs it with `go install`)
#   micvet        this repo's analyzers (internal/analysis): wallclock
#                 (no direct clock reads in the kernels and the serving
#                 layers), goroleak (every goroutine has an owner), resclose
#                 (resources reach Close/Stop; no time.After in a loop)
#
# Usage:
#   scripts/lint.sh              # vet + staticcheck + micvet over ./...
#   scripts/lint.sh ./internal/bfs/...   # restrict the target patterns
#
# Exit status is non-zero when any check reports a finding.
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  PATTERNS="$*"
else
  PATTERNS="./..."
fi

status=0

echo "lint.sh: go vet $PATTERNS" >&2
# shellcheck disable=SC2086
go vet $PATTERNS || status=1

if command -v staticcheck >/dev/null 2>&1; then
  echo "lint.sh: staticcheck $PATTERNS" >&2
  # shellcheck disable=SC2086
  staticcheck $PATTERNS || status=1
else
  echo "lint.sh: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" >&2
fi

echo "lint.sh: micvet $PATTERNS" >&2
# shellcheck disable=SC2086
go run ./cmd/micvet $PATTERNS || status=1

exit $status
