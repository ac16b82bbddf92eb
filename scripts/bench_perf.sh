#!/bin/sh
# bench_perf.sh [out.json] — produce the canonical halo-bench/v1 perf
# document. This ONE script is used both to regenerate the committed
# baseline (baselines/BENCH_perf.json) and by CI to produce the fresh
# document benchdiff gates against it, so the stamped workload identity
# (seeds + config) is identical by construction — cmd/benchdiff refuses to
# compare documents whose identity differs.
#
# Regenerate the baseline after an intentional perf-relevant change:
#
#   scripts/bench_perf.sh baselines/BENCH_perf.json
#
# ns/op in these documents is machine-dependent; the committed baseline is
# only gated on allocs/op (see .github/workflows/ci.yml), which is
# machine-independent for a fixed toolchain.
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_perf.json}"

go test -run NONE -bench 'RunAllSerial|Fig9SingleLookup|LookupFixtureBuild' -benchmem -benchtime 1x . |
    go run ./cmd/benchjson \
        -seeds 0x48414c4f \
        -config "bench=RunAllSerial|Fig9SingleLookup|LookupFixtureBuild" \
        -config benchtime=1x \
        -o "$out"
