#!/bin/sh
# bench_json.sh — runs the perf-trajectory benchmarks and emits a JSON
# summary (default: BENCH_flow.json at the repo root): ns/op, bytes/op and
# allocs/op for the flow-core rebalance benchmarks (BenchmarkRebalance*),
# the end-to-end experiment regeneration (BenchmarkAllSerial /
# BenchmarkAllParallel at the smoke tier), the cluster-size weak-scaling
# sweep (BenchmarkClusterScaling/{64,...,8192} at paper scale, which also
# records ns per simulated event — the metric whose 64→1024 growth
# docs/perf.md bounds at 1.5x), its failing tail
# (BenchmarkClusterScalingFail/{1024,4096}) and the analytic engine's
# what-if (BenchmarkAnalyticWhatIf, with ns per answer). Every row of the
# file is measured here, in the same interleaved rounds, so a rewrite never
# drops one. Future PRs diff this file —
# scripts/benchdiff.sh / cmd/benchdiff — to see the perf trajectory of the
# simulation core.
#
# Usage: bench_json.sh [OUT.json]
#
# Each benchmark runs RCMP_BENCH_COUNT times (default 5) and the MINIMUM
# ns/op is recorded — the standard noise-robust estimator for fixed-work
# benchmarks, which keeps the benchdiff regression gate from flaking on
# scheduler noise. The rounds are interleaved (COUNT passes over the whole
# suite, not -count=N on one bench) so a sustained load burst cannot cover
# every sample of one benchmark. bytes/op, allocs/op and ns/event come
# from the same (minimal) sample; allocs/op is deterministic per run
# anyway and gates alongside ns/op in cmd/benchdiff.
#
# RCMP_BENCH_ITERS overrides the fixed iteration counts (default: 3 for the
# end-to-end pair and the scaling sweeps, 50000 for the microbenchmarks,
# 2000 for the analytic what-if).
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_flow.json}"
E2E_ITERS="${RCMP_BENCH_ITERS:-3}"
MICRO_ITERS="${RCMP_BENCH_ITERS:-50000}"
ANALYTIC_ITERS="${RCMP_BENCH_ITERS:-2000}"
COUNT="${RCMP_BENCH_COUNT:-5}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

i=0
while [ "$i" -lt "$COUNT" ]; do
    RCMP_BENCH_SCALE=smoke go test -run xxx -bench 'BenchmarkAll(Serial|Parallel)$' \
        -benchtime "${E2E_ITERS}x" -benchmem . >>"$tmp"
    go test -run xxx -bench 'BenchmarkClusterScaling(Fail)?$' \
        -benchtime "${E2E_ITERS}x" -benchmem . >>"$tmp"
    go test -run xxx -bench 'BenchmarkAnalyticWhatIf$' \
        -benchtime "${ANALYTIC_ITERS}x" -benchmem . >>"$tmp"
    go test -run xxx -bench 'BenchmarkRebalance' \
        -benchtime "${MICRO_ITERS}x" -benchmem ./internal/flow >>"$tmp"
    i=$((i + 1))
done

# Fields are located by their unit token, not by position: custom metrics
# (ns/event, ns/answer) shift the -benchmem columns.
awk '
/^Benchmark/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = "0"; allocs = "0"; nsev = ""; nsans = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        else if ($i == "B/op") bytes = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
        else if ($i == "ns/event") nsev = $(i - 1)
        else if ($i == "ns/answer") nsans = $(i - 1)
    }
    if (ns == "") next
    if (!(name in nsv) || ns + 0 < nsv[name] + 0) {
        nsv[name] = ns; bytesv[name] = bytes; allocsv[name] = allocs
        iters[name] = $2; nsevv[name] = nsev; nsansv[name] = nsans
    }
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
    print "{"
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
            name, iters[name], nsv[name], bytesv[name], allocsv[name]
        if (nsevv[name] != "")
            printf ", \"ns_per_event\": %s", nsevv[name]
        if (nsansv[name] != "")
            printf ", \"ns_per_answer\": %s", nsansv[name]
        printf i < n ? "},\n" : "}\n"
    }
    printf "  ],\n"
    printf "  \"note\": \"min ns/op over %d runs; AllSerial/AllParallel at smoke scale; ClusterScaling at paper scale with ns/event; ClusterScalingFail is the same sweep with Split and node 3 lost 1 s into run 2; Rebalance* on the 64-node synthetic topologies in internal/flow/bench_test.go; AnalyticWhatIf is one weak-scaling what-if at 131072 nodes on the analytic engine; every row is re-measured by scripts/bench_json.sh and gated by scripts/benchdiff.sh\"\n", '"$COUNT"'
    print "}"
}' "$tmp" >"$OUT"

echo "wrote $OUT:"
cat "$OUT"
