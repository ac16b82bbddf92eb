#!/usr/bin/env bash
# Builds the benchmark once and runs it.
#
#   bench/run.sh                       every workload (REPEATS runs each, default 3) into
#                                      results.json, then the traced run into
#                                      results-traced.json and trace.json
#   bench/run.sh --workload NAME ...   one run with the given flags (the form BENCHMARK.json names)
#
# Everything the build and the run leave behind stays under .bench_build/ in
# the repository root, apart from the result files above.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build"

# Two callers on two cores is the workload's definition, so pin it; and keep
# the toolchain's caches inside the checkout, with nothing fetched.
export GOMAXPROCS=2
export GOCACHE=$build/gocache GOPATH=$build/gopath GOPROXY=off GOTOOLCHAIN=local

# A crashed run must not poison the next: socket files and shm segments live
# in per-run directories under .bench_build/, swept on every exit.
cleanup() { rm -rf "$build"/sock-*; }
trap cleanup EXIT

go build -C bench -o "$build/halo-bench" .

if [ $# -gt 0 ]; then
	"$build/halo-bench" "$@"
	exit
fi
seed=${SEED:-1}
"$build/halo-bench" -seed "$seed" -repeats "${REPEATS:-3}" -out results.json
"$build/halo-bench" -seed "$seed" -traced -out results-traced.json
