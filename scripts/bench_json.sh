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
# The same rounds also measure the real TCP runtime into BENCH_dmr.json:
# BenchmarkDMRChain (bench/'s dmr_clean chain on four in-process workers,
# with shuffle RPCs per chain) and BenchmarkRecordBatchCodec (one
# 750-record shuffle reply through gob, packed frame vs reflected slice,
# with ns per record). That file is a record, not a gate: a chain over
# loopback sockets spreads too widely for benchdiff's 10 %.
#
# Usage: bench_json.sh [OUT.json [DMR_OUT.json]]
#
# With no arguments both files are written at the repo root. With OUT.json
# alone (how scripts/benchdiff.sh calls it) only the gated simulator-core
# file is measured.
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
# 2000 for the analytic what-if and the codec, 10 for the dmr chain).
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_flow.json}"
DMR_OUT="${2:-}"
[ "$#" -eq 0 ] && DMR_OUT=BENCH_dmr.json
E2E_ITERS="${RCMP_BENCH_ITERS:-3}"
MICRO_ITERS="${RCMP_BENCH_ITERS:-50000}"
ANALYTIC_ITERS="${RCMP_BENCH_ITERS:-2000}"
DMR_ITERS="${RCMP_BENCH_ITERS:-10}"
COUNT="${RCMP_BENCH_COUNT:-5}"
tmp="$(mktemp)"
tmp_dmr="$(mktemp)"
trap 'rm -f "$tmp" "$tmp_dmr"' EXIT

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
    if [ -n "$DMR_OUT" ]; then
        go test -run xxx -bench 'BenchmarkDMRChain$' \
            -benchtime "${DMR_ITERS}x" -benchmem . >>"$tmp_dmr"
        go test -run xxx -bench 'BenchmarkRecordBatchCodec$' \
            -benchtime "${ANALYTIC_ITERS}x" -benchmem . >>"$tmp_dmr"
    fi
    i=$((i + 1))
done

# emit_json NOTE <go-test-output: the min-ns/op sample of each benchmark as
# one JSON row. Fields are located by their unit token, not by position:
# custom metrics (ns/event, ns/answer, ...) shift the -benchmem columns.
emit_json() {
    awk -v note="$1" -v count="$COUNT" '
BEGIN {
    custom["ns/event"] = "ns_per_event"; custom["ns/answer"] = "ns_per_answer"
    custom["ns/record"] = "ns_per_record"; custom["shuffle-rpcs/op"] = "shuffle_rpcs_per_op"
}
/^Benchmark/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = "0"; allocs = "0"; extra = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        else if ($i == "B/op") bytes = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
        else if ($i in custom) extra = extra sprintf(", \"%s\": %s", custom[$i], $(i - 1))
    }
    if (ns == "") next
    if (!(name in nsv) || ns + 0 < nsv[name] + 0) {
        nsv[name] = ns; bytesv[name] = bytes; allocsv[name] = allocs
        iters[name] = $2; extrav[name] = extra
    }
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
    print "{"
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s", \
            name, iters[name], nsv[name], bytesv[name], allocsv[name], extrav[name]
        printf i < n ? "},\n" : "}\n"
    }
    printf "  ],\n"
    printf "  \"note\": \"min ns/op over %d runs; %s\"\n", count, note
    print "}"
}'
}

emit_json "AllSerial/AllParallel at smoke scale; ClusterScaling at paper scale with ns/event; ClusterScalingFail is the same sweep with Split and node 3 lost 1 s into run 2; Rebalance* on the 64-node synthetic topologies in internal/flow/bench_test.go; AnalyticWhatIf is one weak-scaling what-if at 131072 nodes on the analytic engine; every row is re-measured by scripts/bench_json.sh and gated by scripts/benchdiff.sh" <"$tmp" >"$OUT"

echo "wrote $OUT:"
cat "$OUT"

if [ -n "$DMR_OUT" ]; then
    emit_json "record only, not gated; DMRChain is bench/'s dmr_clean chain (5 jobs, 4 x 6000 records, 250-record blocks, 8 reducers) on 4 in-process workers over loopback TCP, fresh cluster per iteration, RunChain + OutputDigests timed, shuffle_rpcs_per_op read off the lineage (one fetch per reducer per remote source worker); RecordBatchCodec is one 750-record shuffle reply through a warm gob stream as the packed RecordBatch frame vs a reflected record slice, with ns per record" <"$tmp_dmr" >"$DMR_OUT"
    echo "wrote $DMR_OUT:"
    cat "$DMR_OUT"
fi
