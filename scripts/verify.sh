#!/bin/sh
# verify.sh — the repo's one-command gate: build, vet and gofmt; the frozen
# benchmark module (bench/, its own go.mod, which tier-1 never builds), so
# an internal API deletion that breaks it is caught here; tier-1; the race
# detector over the full suite, then twice over the packages whose state
# is reused across runs or shared between goroutines; the pinned chains
# and golden digests; the analytic-vs-DES tolerance suite; a few seconds
# of fuzzing on the dmr record-frame decoder, the wire receive path
# (envelope plus bulk section), the job-graph validator, the sweep request
# decoder, the report indenter and the record byte sum; one smoke pass of
# every benchmark. The commands have no smoke step: their tests drive
# them in-process under tier-1. Nothing here is timed;
# wall-clock comparisons need paired rounds, which `make bench-compare
# BASE=<rev>` runs (docs/perf.md, "Measuring a change").
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== bench module (vet + test against the current internal API) =="
(cd bench && go vet ./... && go test ./...)

echo "== test =="
go test ./...

echo "== race (full suite) =="
go test -race ./...

echo "== race (simulation core + runner + distributed runtime + sweep server + cross-validation, repeated) =="
go test -race -count=2 ./internal/des ./internal/flow ./internal/mapreduce ./internal/middleware ./internal/core ./internal/runner ./internal/experiments ./internal/dmr ./internal/wire ./internal/server ./internal/xval

echo "== race (pinned chain outcomes + ready bits + golden digests, repeated) =="
go test -race -count=2 -run 'TestPinned|TestGoldenDigests|TestReadyBitsMatchBuckets' ./internal/mapreduce ./internal/experiments

echo "== golden digests (ladder queue + rate-class flow core on) =="
go test -count=1 -run 'TestGoldenDigests' ./internal/experiments

echo "== analytic-vs-DES tolerance suite (registry-wide, 2 seeds per spec) =="
go test -count=1 -run 'TestAnalyticEngineToleranceRegistryWide' ./internal/experiments

echo "== fuzz (dmr record-batch frame decoder, 5 s) =="
go test -run xxx -fuzz 'FuzzRecordBatchDecode$' -fuzztime 5s ./internal/dmr

echo "== fuzz (wire receive path: envelope plus bulk section, 5 s) =="
go test -run xxx -fuzz 'FuzzReadEnvelope$' -fuzztime 5s ./internal/wire

echo "== fuzz (job-graph validator against core.Topology, 5 s) =="
go test -run xxx -fuzz 'FuzzNewGraph$' -fuzztime 5s ./internal/middleware

echo "== fuzz (sweep request decoder, 5 s) =="
go test -run xxx -fuzz 'FuzzSweepRequest$' -fuzztime 5s ./internal/server

echo "== fuzz (report indenter against json.Indent, 5 s) =="
go test -run xxx -fuzz 'FuzzIndentReport$' -fuzztime 5s ./internal/runner

echo "== fuzz (word-wise byte sum against the byte loop, 5 s) =="
go test -run xxx -fuzz 'FuzzByteSum$' -fuzztime 5s ./internal/workload

echo "== bench-smoke =="
RCMP_BENCH_SCALE=smoke go test -run xxx -bench . -benchtime 1x ./...

echo "verify: OK"
