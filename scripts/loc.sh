#!/usr/bin/env bash
# loc.sh prints the non-test Go line count of every package under
# internal/, cmd/ and examples/, then their total: `wc -l` over each
# directory's .go files that are not _test.go, the rule ROADMAP.md and
# CHANGES.md use for every LoC figure. It reports; it checks nothing.
#
# Given a git revision BASE, it prints per package the count at BASE, the
# count in the working tree and the delta. BASE is read with `git show
# BASE:path`, so nothing is checked out.
#
#   scripts/loc.sh         (or: make loc)
#   scripts/loc.sh BASE    (or: make loc BASE=<rev>)
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A here base
while read -r dir; do
	here[$dir]=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
done < <(find internal cmd examples -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u)

if [ $# -eq 0 ]; then
	total=0
	for dir in $(printf '%s\n' "${!here[@]}" | sort); do
		printf '%-28s %6d\n' "$dir" "${here[$dir]}"
		total=$((total + here[$dir]))
	done
	printf '%-28s %6d\n' total "$total"
	exit 0
fi

rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
	echo "loc.sh: $1 is not a git revision" >&2
	exit 2
}
while read -r f; do
	dir=$(dirname "$f")
	base[$dir]=$((${base[$dir]:-0} + $(git show "$rev:$f" | wc -l)))
done < <(git ls-tree -r --name-only "$rev" -- internal cmd examples | grep '\.go$' | grep -v '_test\.go$')

printf '%-28s %6s %6s %7s\n' package base here delta
bt=0 ht=0
for dir in $(printf '%s\n' "${!here[@]}" "${!base[@]}" | sort -u); do
	b=${base[$dir]:-0} h=${here[$dir]:-0}
	printf '%-28s %6d %6d %+7d\n' "$dir" "$b" "$h" $((h - b))
	bt=$((bt + b)) ht=$((ht + h))
done
printf '%-28s %6d %6d %+7d\n' total "$bt" "$ht" $((ht - bt))
