#!/usr/bin/env bash
# loc.sh prints the non-test Go line count of every package under
# internal/, cmd/ and examples/, then their total: `wc -l` over each
# directory's .go files that are not _test.go, the rule ROADMAP.md and
# CHANGES.md use for every LoC figure. It reports; it checks nothing.
#
#   scripts/loc.sh      (or: make loc)
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
while read -r dir; do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%-28s %6d\n' "$dir" "$n"
	total=$((total + n))
done < <(find internal cmd examples -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u)
printf '%-28s %6d\n' total "$total"
