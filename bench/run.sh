#!/bin/bash
# run.sh — build the benchmark from source and run it with the given flags.
# It is the command of BENCHMARK.json, started from the repository root:
#
#	bash bench/run.sh --workload mesh-small --seed 1 --seconds 12 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, temporary and
# toolchain-configuration files) stays in .bench_build/ at the root of the
# checkout, so nothing outside the checkout is written. The first run in a
# checkout compiles the standard library too (about a minute on two cores);
# later runs find everything up to date.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOPATH=$build/gopath GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
