#!/usr/bin/env bash
# Statement coverage of internal/ by the whole tier-1 suite. Every package's
# tests count toward every internal package they reach (-coverpkg), and the
# test binaries' profiles are merged block by block, so a statement counts as
# run if any test ran it. Prints, per package, its statements, how many no
# test ran and the share that ran; then every function at 0 %.
#
#   scripts/cover.sh
#
# Standard toolchain only (go test, go tool cover). Informational: nothing
# gates on it. About a minute on 2 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
merged=$tmp/merged.prof

if ! go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/raw.prof" ./... > "$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	exit 1
fi

# One line per block: the profile repeats a block once per test binary that
# was built with it, and a block ran if any of them ran it.
awk 'NR == 1 { mode = $0; next }
	{ stmts[$1] = $2; if ($3 > 0) ran[$1] = 1 }
	END {
		print mode
		for (b in stmts) print b, stmts[b], (b in ran) ? 1 : 0
	}' "$tmp/raw.prof" > "$merged"

echo "statements  unrun    run  package"
awk 'NR > 1 {
		pkg = $1; sub(/\/[^\/]*:.*$/, "", pkg)
		total[pkg] += $2
		if ($3 == 0) unrun[pkg] += $2
	}
	END {
		for (p in total) {
			printf "%10d %6d %5.1f%%  %s\n", total[p], unrun[p], 100 * (total[p] - unrun[p]) / total[p], p
			all += total[p]; none += unrun[p]
		}
		printf "%10d %6d %5.1f%%  total\n", all, none, 100 * (all - none) / all > "/dev/stderr"
	}' "$merged" 2> "$tmp/total" | sort -k4
cat "$tmp/total"

echo
echo "functions no test runs:"
go tool cover -func="$merged" | awk '$NF == "0.0%" { print "  " $1, $2 }'
