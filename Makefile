GO ?= go

.PHONY: all build test race bench-smoke bench-compare bench-full profile-scale profile-scale-fail profile-figs profile-dmr profile-serve verify loc

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

# bench-compare measures a change against BASE (any git revision): bench/'s
# seven workloads, ROUNDS alternated rounds on each side, one `bench
# compare` table. It exits non-zero only on a regressed row or a fail_share
# rise (docs/perf.md, "Measuring a change"). About three minutes a round.
ROUNDS ?= 10
bench-compare:
	./scripts/benchcmp.sh "$(BASE)" $(ROUNDS)

# profile-scale profiles the 4096-node weak-scaling benchmark — the tail
# of the ns/event growth target — into profiles/ and prints the top-10
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
# five paper-scale passes over every registered figure
# (BenchmarkAllSerial) — des, strict flow accounting and the exact shuffle
# tier on 10-60 node clusters, about a second a pass. Each figure runs on
# one lane here, while figs_paper now fans a figure's runs out across
# GOMAXPROCS lanes, so this profile stays comparable with docs/perf.md's
# history but not with figs_paper's wall clock. The captures stay local
# (.gitignore).
profile-figs:
	@mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkAllSerial$$' -benchtime 5x \
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

# profile-serve profiles the layer that owns bench/'s serve_hit workload: a
# fully cached 4-job sweep served through the handler, streamed and
# stream:false (BenchmarkSweepHit) — decode, digest, cache lookup and the
# copy of cached report rows, without the loopback socket. The one cache
# fill runs before the timer starts. The captures stay local (.gitignore).
profile-serve:
	@mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkSweepHit' -benchtime 20000x \
		-cpuprofile profiles/serve.cpu.pprof \
		-memprofile profiles/serve.mem.pprof ./internal/server
	$(GO) tool pprof -top -nodecount=10 profiles/serve.cpu.pprof

# bench-full runs every benchmark at paper scale (seconds of wall time each).
bench-full:
	$(GO) test -run xxx -bench . ./...

# verify is the tier-1 gate plus vet/format, race and smoke checks in one
# command.
verify:
	./scripts/verify.sh

# loc prints the non-test Go line count of every package under internal/,
# cmd/ and examples/ and their total, by the rule CHANGES.md uses for LoC
# figures. A report, not a check: it never fails on a count.
loc:
	./scripts/loc.sh
