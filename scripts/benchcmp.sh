#!/usr/bin/env bash
# benchcmp.sh — measures the working tree against BASE (any git revision)
# with the repository's benchmark (bench/, BENCHMARK.json). Each of ROUNDS
# rounds runs `bench/run.sh -workload all -seed 0` once on a checkout of
# BASE and once on the working tree; the side that goes first alternates,
# so a slow stretch of the machine lands on both. Seed 0 keeps every
# bench/ref digest check live. The rounds of each side are merged into one
# result set, and `bench/run.sh compare base change` prints the table.
# The exit status is compare's: non-zero only on a regressed row or a
# fail_share rise; a row whose quartile spread exceeds its bound reads
# `unresolved` (docs/perf.md, "Measuring a change").
#
# Usage: scripts/benchcmp.sh BASE [ROUNDS]      (ROUNDS defaults to 10)
set -euo pipefail
[ -n "${1:-}" ] || { echo "usage: $0 BASE [ROUNDS]" >&2; exit 2; }
root="$(cd "$(dirname "$0")/.." && pwd)"
base="$(git -C "$root" rev-parse --verify "$1^{commit}")"
rounds="${2:-10}"
# The work directory lives under the checkout's git-ignored .bench_build,
# beside bench/run.sh's own build, so a comparison writes nothing outside
# the checkout.
mkdir -p "$root/.bench_build"
tmp="$(mktemp -d "$root/.bench_build/cmp.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
# A shared clone reads the repository's objects in place and registers
# nothing in its .git, so an interrupted run leaves nothing behind there.
git clone -q --shared --no-checkout "$root" "$tmp/tree"
git -C "$tmp/tree" checkout -q --detach "$base"

run() { # SIDE TREE ROUND
    (cd "$2" && bash bench/run.sh -workload all -seed 0 -out "$tmp/$1/$3") ||
        echo "benchcmp: $1 round $3 exited non-zero" >&2
}
for ((r = 1; r <= rounds; r++)); do
    if ((r % 2)); then run base "$tmp/tree" "$r"; run change "$root" "$r"
    else run change "$root" "$r"; run base "$tmp/tree" "$r"; fi
done
for side in base change; do
    jq -s '{meta: .[0].meta, runs: (map(.runs) | add)}' "$tmp/$side"/*/results.json >"$tmp/$side.json"
done
cd "$root"
bash bench/run.sh compare "$tmp/base.json" "$tmp/change.json"
