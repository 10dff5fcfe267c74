GO ?= go

.PHONY: all build test race bench-smoke bench bench-scale bench-serve bench-full benchdiff profile-scale profile-scale-fail profile-figs profile-dmr verify

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the experiment runner
# fans simulations out across goroutines, so this gate keeps it honest.
race:
	$(GO) test -race ./...

# bench-smoke executes every benchmark exactly once at the smoke tier
# (experiments.ScaleSmoke) — a fast end-to-end sanity pass, not a timing run.
bench-smoke:
	RCMP_BENCH_SCALE=smoke $(GO) test -run xxx -bench . -benchtime 1x ./...

# bench runs the perf-trajectory benchmarks of the simulation core
# (BenchmarkRebalance*, BenchmarkAllSerial, BenchmarkAllParallel, the
# BenchmarkClusterScaling weak-scaling sweep with its failing tail
# BenchmarkClusterScalingFail, and BenchmarkAnalyticWhatIf) and emits their
# ns/op, bytes/op, allocs/op (and ns/event for the scaling sweeps,
# ns/answer for the what-if) as BENCH_flow.json, so successive PRs can diff the trajectory. Run it (on
# an idle machine) to regenerate the baseline after intentional perf
# changes. The same rounds record the real TCP runtime (BenchmarkDMRChain,
# BenchmarkRecordBatchCodec) into BENCH_dmr.json, which nothing gates.
bench:
	./scripts/bench_json.sh

# bench-scale regenerates the same file with the cluster-size scaling
# benchmarks in it (BenchmarkClusterScaling/{64,256,1024,4096}, ns per
# simulated event — the regression surface for the ≤1.5x 64→1024
# ns/event growth target, docs/perf.md). The scaling rows only gate
# meaningfully against peers measured in the same session, so this is
# the whole-trajectory run under its scaling-focused name.
bench-scale: bench

# benchdiff re-measures the same benchmarks and diffs against the
# committed BENCH_flow.json, failing on >10% ns/op regressions — the gate
# verify.sh runs.
benchdiff:
	./scripts/benchdiff.sh

# profile-scale profiles the 4096-node weak-scaling benchmark — the tail
# the ns/event growth target gates — into profiles/ and prints the top-10
# flat CPU list, so a scaling regression is diagnosable in one command.
# Inspect interactively with `go tool pprof profiles/scale4096.cpu.pprof`.
profile-scale:
	@mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkClusterScaling/4096' -benchtime 5x \
		-cpuprofile profiles/scale4096.cpu.pprof \
		-memprofile profiles/scale4096.mem.pprof .
	$(GO) tool pprof -top -nodecount=10 profiles/scale4096.cpu.pprof

# profile-scale-fail is the same for the failing tail: the 4096-node
# chain that loses a node in run 2 (BenchmarkClusterScalingFail, the chain
# bench/'s scale_fail workload runs), where the post-failure shuffle
# accounting is what shows. The captures stay local (.gitignore).
profile-scale-fail:
	@mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkClusterScalingFail/4096' -benchtime 10x \
		-cpuprofile profiles/scalefail4096.cpu.pprof \
		-memprofile profiles/scalefail4096.mem.pprof .
	$(GO) tool pprof -top -nodecount=10 profiles/scalefail4096.cpu.pprof

# profile-figs profiles the layer that owns bench/'s figs_paper workload:
# one paper-scale pass over every registered figure (BenchmarkAllSerial) —
# des, strict flow accounting and the exact shuffle tier on 10-60
# node clusters, a couple of seconds in all. The captures stay local
# (.gitignore).
profile-figs:
	@mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkAllSerial$$' -benchtime 1x \
		-cpuprofile profiles/figs.cpu.pprof \
		-memprofile profiles/figs.mem.pprof .
	$(GO) tool pprof -top -nodecount=10 profiles/figs.cpu.pprof

# profile-dmr profiles the layer that owns bench/'s dmr_clean workload: the
# failure-free 5-job chain on four in-process workers over loopback TCP
# (BenchmarkDMRChain) — wire and dmr, no simulator. Cluster start and
# LoadInput run with the benchmark timer stopped but still show in the
# profile (a few percent). The captures stay local (.gitignore).
profile-dmr:
	@mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkDMRChain$$' -benchtime 20x \
		-cpuprofile profiles/dmr.cpu.pprof \
		-memprofile profiles/dmr.mem.pprof .
	$(GO) tool pprof -top -nodecount=10 profiles/dmr.cpu.pprof

# bench-serve load-tests the sweep server (cmd/serveload): two phases of
# 1000 fully concurrent smoke-tier sweep requests against an in-process
# rcmpserve instance, verifying zero dropped/duplicated jobs, byte-identical
# payloads per grid and a >=90% repeat cache hit rate, then writes
# throughput + p50/p95/p99 latency + hit rate to BENCH_serve.json
# (docs/serving.md). Exits non-zero if any serving guarantee is violated.
bench-serve:
	$(GO) run ./cmd/serveload

# bench-full runs every benchmark at paper scale (seconds of wall time each).
bench-full:
	$(GO) test -run xxx -bench . ./...

# verify is the tier-1 gate plus vet/format, race and smoke checks in one
# command.
verify:
	./scripts/verify.sh
