#!/bin/sh
# verify.sh — the repo's one-command gate:
#   1. tier-1: go build ./... && go test ./...
#   2. static checks: go vet and gofmt -l over the whole module, then the
#      frozen benchmark module (bench/, its own go.mod, which tier-1 never
#      builds): vet and its tests, so an internal API deletion that breaks
#      the benchmark is caught here and not first by the pipeline
#   3. race detector over the full suite, then -count=2 under -race on the
#      packages whose state is reused across runs or shared between
#      goroutines: the simulation core (the des kernel and its settler
#      contract, the flow network and its settle tests) and graph
#      planner, the runner (each worker reuses its own context), the
#      distributed runtime, the sweep server (including its
#      concurrent-load test) and the cross-validation harness
#   4. the pinned chain outcomes (mapreduce's TestPinned*), the exact
#      tier's ready-bit check (TestReadyBitsMatchBuckets) and the golden
#      digests repeated under -race, the golden-digest suite explicitly,
#      then the analytic-vs-DES tolerance suite over the registry
#   5. native fuzzing: a few seconds of FuzzRecordBatchDecode, the dmr
#      record-frame decoder that reads bytes off a socket, on top of its
#      committed seed corpus (which plain `go test` already replays)
#   6. benchmark smoke pass: every benchmark once at the smoke tier
# The rcmpsim, rcmpserve and rcmpxval commands have no smoke step: their
# tests drive them in-process under tier-1 (cmd/rcmpsim's compares the
# sweep server's stream:false body with its own -json bytes for every
# sweep dimension, cmd/rcmpserve's serves and drains, cmd/rcmpxval's runs
# the cross-validation smokes, one failure offset plain and one under the
# chaos transport). No step times anything: wall-clock comparisons
# need paired rounds on both sides of a change, which
# `make bench-compare BASE=<rev>` runs (docs/perf.md, "Measuring a
# change").
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

echo "== bench-smoke =="
RCMP_BENCH_SCALE=smoke go test -run xxx -bench . -benchtime 1x ./...

echo "verify: OK"
