#!/usr/bin/env bash
# Code lines per Go package: non-test files outside testdata/, not counting
# blank lines and lines that hold only a comment. These are the numbers
# ROADMAP.md and CHANGES.md quote when a PR claims to have made a package
# smaller.
#
#   scripts/loc.sh                  # every package, then the total
#   scripts/loc.sh internal/flowserve internal/experiments
#
# Informational only: nothing gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
	dirs=("$@")
else
	mapfile -t dirs < <(find . \( -name '.?*' -o -name testdata \) -prune -o -name '*.go' ! -name '*_test.go' -printf '%h\n' | sed 's|^\./||' | sort -u)
fi

total=0
for d in "${dirs[@]}"; do
	files=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -z "$files" ] && continue
	# shellcheck disable=SC2086
	n=$(awk '
		in_block { if (sub(/.*\*\//, "")) in_block = 0; else next }
		{ sub(/^[ \t]+/, "") }
		/^\/\*/ { if (!/\*\//) in_block = 1; next }
		/^$/ || /^\/\// { next }
		{ n++ }
		END { print n + 0 }' $files)
	printf '%7d  %s\n' "$n" "$d"
	total=$((total + n))
done
printf '%7d  total\n' "$total"
