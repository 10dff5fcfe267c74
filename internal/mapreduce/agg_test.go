package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/des"
	"rcmp/internal/middleware"
)

// agg_test.go exercises shuffle accounting under failure: the aggregated
// tier's switch from volume sweeps to per-completion offers in every phase
// window, and — on both tiers — pinned simulated outputs and reducer
// entitlements for the re-execution dedup rule (shuffle_phase.go).

func aggChain(nodes int, inj []Injection) (cluster.Config, ChainConfig) {
	ccfg := cluster.DCOConfig(nodes, 1, 1)
	cfg := ChainConfig{
		Mode:               ModeRCMP,
		NumJobs:            2,
		NumReducers:        nodes,
		InputPerNode:       64 * cluster.MB,
		BlockSize:          32 * cluster.MB,
		InputRepl:          3,
		ShuffleAggregation: ShuffleAggOn,
		Failures:           inj,
	}
	return ccfg, cfg
}

// TestAggFailureDuringReducerStartup pins the fallback window a reducer
// sitting in its TaskStartup delay occupies when the failure lands:
// aggSlowFallback cannot settle it (not shuffling yet), so its shuffle
// start must account every completed output itself, from aggOut.
func TestAggFailureDuringReducerStartup(t *testing.T) {
	// DCO TaskStartup is 0.3s; 0.1s into run 1 every reducer is mid-startup.
	ccfg, cfg := aggChain(16, []Injection{{AtRun: 1, After: 0.1, Node: 3}})
	res, err := RunChain(ccfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatalf("chain total %v, want > 0", res.Total)
	}
}

// TestAggFailureScenarios sweeps the injection offset across the first
// run so the fallback fires in every phase window (startup, map phase,
// shuffle, output), and checks the chain recovers to completion each
// time.
func TestAggFailureScenarios(t *testing.T) {
	for _, after := range []float64{0.1, 1, 5, 20, 60} {
		ccfg, cfg := aggChain(16, []Injection{{AtRun: 1, After: des.Time(after), Node: 3}})
		res, err := RunChain(ccfg, cfg)
		if err != nil {
			t.Fatalf("after=%v: %v", after, err)
		}
		if res.StartedRuns < cfg.NumJobs {
			t.Fatalf("after=%v: only %d runs started", after, res.StartedRuns)
		}
	}
}

// TestAggMultiFailure drops two nodes at one instant mid-run on the
// aggregated tier (the outage shape trace schedules produce).
func TestAggMultiFailure(t *testing.T) {
	ccfg, cfg := aggChain(16, []Injection{{AtRun: 1, After: 10, Node: 3, Count: 2}})
	if _, err := RunChain(ccfg, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAggMatchesExactFailureFree sanity-bounds the aggregation: with a
// symmetric failure-free workload the pooled-endpoint model must land in
// the same ballpark as the exact per-pair model. It is documented to be
// optimistic — pooling removes per-node endpoint hot-spots, and disks no
// longer interleave map and shuffle streams (their seek penalties enter
// only through the capped pool sizing) — so the band is asymmetric:
// faster than exact is expected, slower or wildly faster is a model bug.
func TestAggMatchesExactFailureFree(t *testing.T) {
	ccfg, cfg := aggChain(16, nil)
	agg, err := RunChain(ccfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShuffleAggregation = ShuffleAggOff
	exact, err := RunChain(ccfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(agg.Total) / float64(exact.Total)
	if ratio < 0.5 || ratio > 1.1 {
		t.Fatalf("aggregated total %v vs exact %v (ratio %.2f); aggregation drifted beyond its documented approximation",
			agg.Total, exact.Total, ratio)
	}
}

// pinCase is one failing chain of the pinned matrix: recovery strategy ×
// shuffle tier × cluster size × reducer waves × failure offset into run 2
// × batch size, on a three-job chain long enough (8 map waves per job, 3 s
// detection) that the offset lands the loss in every phase window.
type pinCase struct {
	mode   Mode
	exact  bool // exact shuffle tier; aggregated otherwise
	nodes  int
	redMul int // NumReducers = redMul × nodes
	after  des.Time
	count  int // nodes killed at the injection instant
}

func (c pinCase) String() string {
	tier := "agg"
	if c.exact {
		tier = "exact"
	}
	return fmt.Sprintf("%v/%s/n%d/r%dx/after%v/kill%d", c.mode, tier, c.nodes, c.redMul, c.after, c.count)
}

func (c pinCase) configs() (cluster.Config, ChainConfig) {
	ccfg, cfg := aggChain(c.nodes, []Injection{{AtRun: 2, After: c.after, Node: 3, Count: c.count}})
	ccfg.FailureDetectionTimeout = 3
	cfg.NumJobs = 3
	cfg.InputPerNode = 256 * cluster.MB
	cfg.NumReducers = c.redMul * c.nodes
	cfg.Mode = c.mode
	if c.mode == ModeHadoop {
		cfg.OutputRepl = 3
	} else {
		cfg.Split = true
	}
	if c.exact {
		cfg.ShuffleAggregation = ShuffleAggOff
	}
	return ccfg, cfg
}

// pinStats is everything a chain reports that the shuffle accounting can
// move: the simulated time (compared with ==), the simulation's own event
// and flow counts, and the run sequence as "job:kind" words, "!" marking a
// cancelled run.
type pinStats struct {
	total   float64
	events  uint64
	flows   uint64
	started int
	runs    string
}

func pinStatsOf(res *Result) pinStats {
	var runs []string
	for _, r := range res.Runs {
		w := fmt.Sprintf("%d:%s", r.Job, r.Kind)
		if r.Cancelled {
			w += "!"
		}
		runs = append(runs, w)
	}
	return pinStats{float64(res.Total), res.Events, res.Flows, res.StartedRuns, strings.Join(runs, " ")}
}

func (s pinStats) literal() string {
	return fmt.Sprintf("pinStats{%v, %d, %d, %d, %q}", s.total, s.events, s.flows, s.started, s.runs)
}

// TestPinnedFailureMatrix holds the failing-chain shuffle accounting to
// values recorded before the seen bitmaps were replaced by the sequence
// rule (shuffle_phase.go): any change to which bytes a reducer is offered,
// to the order the offers are summed in, or to when a fetch is kicked moves
// at least one of these numbers. The rows are a trimmed cut of the full
// mode × tier × size × waves × offset × batch matrix, every row distinct.
func TestPinnedFailureMatrix(t *testing.T) {
	rows := []struct {
		pinCase
		want pinStats
	}{
		{pinCase{ModeRCMP, false, 16, 1, 0.1, 1}, pinStats{47.479999787751154, 1199, 1903, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 16, 1, 5, 2}, pinStats{55.462761824586515, 1430, 2274, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 16, 1, 11, 1}, pinStats{41.29899996532664, 1280, 2012, 6, "1:initial 2:initial 3:initial! 1:recompute 2:recompute 3:restart"}},
		{pinCase{ModeRCMP, false, 16, 3, 1, 2}, pinStats{55.225699389966415, 1691, 1948, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 16, 3, 7, 1}, pinStats{55.88333305791013, 1717, 2131, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 16, 3, 14, 2}, pinStats{58.730972703640454, 1939, 2218, 7, "1:initial 2:initial 3:initial! 1:recompute! 1:recompute 2:recompute 3:restart"}},
		{pinCase{ModeRCMP, false, 48, 1, 3, 1}, pinStats{49.84036622991337, 3593, 6209, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 48, 1, 9, 2}, pinStats{58.42016886821399, 3868, 6770, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 48, 1, 19, 1}, pinStats{48.905945597517814, 3860, 6683, 6, "1:initial 2:initial 3:initial! 1:recompute 2:recompute 3:restart"}},
		{pinCase{ModeRCMP, false, 48, 3, 7, 2}, pinStats{60.15492183460794, 5056, 6682, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 48, 3, 14, 1}, pinStats{49.95125414400889, 4757, 6191, 6, "1:initial 2:initial 3:initial! 1:recompute 2:recompute 3:restart"}},
		{pinCase{ModeRCMP, false, 48, 3, 1, 2}, pinStats{54.15492183460796, 4645, 5948, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 100, 1, 9, 1}, pinStats{55.74896950050947, 7600, 13781, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 100, 1, 19, 2}, pinStats{51.87189656837647, 8242, 14314, 7, "1:initial 2:initial 3:initial! 1:recompute! 1:recompute 2:recompute 3:restart"}},
		{pinCase{ModeRCMP, false, 100, 1, 3, 1}, pinStats{49.74896950050947, 7285, 12969, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 100, 3, 11, 2}, pinStats{63.941814144369495, 10817, 14564, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 100, 3, 0.1, 1}, pinStats{48.39809536362974, 8672, 11580, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, false, 100, 3, 5, 2}, pinStats{57.941814144369516, 10305, 13948, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeHadoop, false, 16, 1, 19, 1}, pinStats{79.33968724279833, 1054, 1871, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 16, 1, 3, 2}, pinStats{90.72313246753244, 1085, 1846, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 16, 1, 9, 1}, pinStats{81.79373903743314, 1067, 1884, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 16, 3, 0.1, 2}, pinStats{87.52052330529425, 1631, 1848, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 16, 3, 5, 1}, pinStats{86.93237638736187, 1539, 1884, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 16, 3, 11, 2}, pinStats{82.7889577696756, 1595, 1915, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 48, 1, 1, 1}, pinStats{75.01099999999998, 2760, 5344, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 48, 1, 7, 2}, pinStats{89.48277777777776, 2816, 5457, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 48, 1, 14, 1}, pinStats{75.08132620320853, 2797, 5471, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 48, 3, 5, 2}, pinStats{83.97319482969885, 4097, 5659, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 48, 3, 11, 1}, pinStats{75.0888813490886, 3846, 5718, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 48, 3, 0.1, 2}, pinStats{83.64072566557127, 4062, 5624, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 100, 1, 7, 1}, pinStats{76.02239999999998, 5588, 11096, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 100, 1, 14, 2}, pinStats{93.06121721415835, 5637, 11102, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 100, 1, 1, 1}, pinStats{75.01759999999996, 5566, 10970, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 100, 3, 9, 2}, pinStats{80.37422555046797, 7857, 11912, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 100, 3, 19, 1}, pinStats{72.35681241814127, 7386, 11810, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, false, 100, 3, 3, 2}, pinStats{81.7235005503592, 7700, 11778, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeRCMP, true, 16, 1, 14, 1}, pinStats{74.69182299500319, 1461, 3417, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, true, 16, 1, 1, 2}, pinStats{63.89554547641055, 1375, 2960, 6, "1:initial 2:initial! 1:recompute! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeRCMP, true, 16, 3, 19, 2}, pinStats{67.71556781963761, 2076, 5966, 7, "1:initial 2:initial 3:initial! 1:recompute! 1:recompute 2:recompute 3:restart"}},
		{pinCase{ModeRCMP, true, 16, 3, 3, 1}, pinStats{63.40583796271252, 1718, 4136, 5, "1:initial 2:initial! 1:recompute 2:restart 3:initial"}},
		{pinCase{ModeHadoop, true, 16, 1, 0.1, 1}, pinStats{84.42469571399744, 1209, 2594, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, true, 16, 1, 5, 2}, pinStats{101.54003838607095, 1278, 2655, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, true, 16, 3, 3, 2}, pinStats{94.85382519145931, 2360, 3389, 3, "1:initial 2:initial 3:initial"}},
		{pinCase{ModeHadoop, true, 16, 3, 9, 1}, pinStats{91.03735119799641, 2393, 3515, 3, "1:initial 2:initial 3:initial"}},
	}
	for _, row := range rows {
		ccfg, cfg := row.configs()
		checkPinned(t, row.pinCase, ccfg, cfg, row.want)
	}
}

func checkPinned(t *testing.T, label any, ccfg cluster.Config, cfg ChainConfig, want pinStats) {
	t.Helper()
	if got := pinOutcome(t, label, ccfg, cfg); got != want.literal() {
		t.Errorf("%v:\n got  %s\n want %s", label, got, want.literal())
	}
}

// pinOutcome runs a chain and returns its pinStats literal, or "error: "
// and the error text when the chain fails. The same chain as a one-tenant
// session must reproduce it — tenant 0's total and runs, the session's
// events and flows, or the same error under the session's "tenant 0: "
// prefix — and a session that does not is reported under label.
func pinOutcome(t *testing.T, label any, ccfg cluster.Config, cfg ChainConfig) string {
	t.Helper()
	var chain, session string
	if res, err := RunChain(ccfg, cfg); err != nil {
		chain = "error: " + err.Error()
	} else {
		chain = pinStatsOf(res).literal()
	}
	if mr, err := NewContext(ccfg).RunMultiTenant(GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)}, 1); err != nil {
		session = "error: " + strings.TrimPrefix(err.Error(), "tenant 0: ")
	} else {
		got := pinStatsOf(mr.Tenants[0])
		got.events, got.flows = mr.Events, mr.Flows
		session = got.literal()
	}
	if session != chain {
		t.Errorf("%v (1-tenant session):\n got  %s\n want %s", label, session, chain)
	}
	return chain
}

// noReuseChain draws one seeded random RCMP chain that re-runs every
// mapper of a recomputed job (NoMapOutputReuse, the Section V-D knob): 4
// to 23 nodes, input replication 1 to 3, 1 to 3 nodes killed over one or
// two injections landing in runs 1 to 3, Split on or off.
func noReuseChain(seed int64) (cluster.Config, ChainConfig) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 4 + rng.Intn(20)
	ccfg := tinyCluster(nodes, 1+rng.Intn(2), 1)
	ccfg.FailureDetectionTimeout = des.Time(1 + rng.Intn(8))
	cfg := tinyChain(3+rng.Intn(2), 1+rng.Intn(nodes), int64(64*(1+rng.Intn(3))))
	cfg.Seed = seed
	cfg.NoMapOutputReuse = true
	cfg.InputRepl = 1 + rng.Intn(3)
	cfg.Split = rng.Intn(2) == 0
	kills := 1 + rng.Intn(3)
	for kills > 0 {
		count := 1 + rng.Intn(kills)
		cfg.Failures = append(cfg.Failures, Injection{
			AtRun: 1 + rng.Intn(3), After: des.Time(rng.Float64() * 10), Node: -1, Count: count,
		})
		kills -= count
	}
	return ccfg, cfg
}

// TestPinnedNoReuseChains holds no-reuse recovery to its recorded
// outcomes over noReuseChain's seeds. Each seed's pinOutcome — its
// pinStats, or the error it ends in (a kill that takes every replica of
// an input partition is unrecoverable) — is folded into the FNV-1a hash of
// its block of 50 seeds, so a moved hash names the block to bisect.
func TestPinnedNoReuseChains(t *testing.T) {
	want := []uint64{
		0x48cd5de3272f7b11, 0x710387a482e7bedd, 0x567e4ca3d819a6fe, 0x815014feae9b25b2,
		0x72c4dde9b15ffe9c, 0x0dc45bd1cc541578, 0xe62100b341247283, 0x49dcfa3f182f11a0,
	}
	completed := 0
	for b, w := range want {
		h := fnv.New64a()
		for seed := int64(50 * b); seed < int64(50*(b+1)); seed++ {
			ccfg, cfg := noReuseChain(seed)
			out := pinOutcome(t, fmt.Sprintf("seed %d", seed), ccfg, cfg)
			if !strings.HasPrefix(out, "error: ") {
				completed++
			}
			fmt.Fprintf(h, "%d %s\n", seed, out)
		}
		if got := h.Sum64(); got != w {
			t.Errorf("seeds %d-%d: outcome hash %#x, want %#x", 50*b, 50*b+49, got, w)
		}
	}
	t.Logf("%d of %d chains completed", completed, 50*len(want))
}

// specRerunChain is a Hadoop chain on a six-node cluster with one slow
// disk and speculation on, losing node 3 (and count-1 more) in run 2: the
// shape where a speculative duplicate of a re-executed mapper wins, so the
// completing task is not the one that carries the re-execution mark.
func specRerunChain(exact bool, slowNode int, after des.Time, count int) (cluster.Config, ChainConfig) {
	cfg := tinyChain(3, 18, 384)
	cfg.Mode = ModeHadoop
	cfg.OutputRepl = 3
	cfg.InputRepl = 3
	cfg.Speculation = true
	cfg.ShuffleAggregation = ShuffleAggOn
	if exact {
		cfg.ShuffleAggregation = ShuffleAggOff
	}
	cfg.Failures = []Injection{{AtRun: 2, After: after, Node: 3, Count: count}}
	ccfg := stragglerCluster(6, slowNode, 0.2)
	ccfg.FailureDetectionTimeout = 3
	return ccfg, cfg
}

// TestPinnedSpeculativeRerun pins chains in which a duplicate of a
// re-executed mapper completes first, on both tiers.
func TestPinnedSpeculativeRerun(t *testing.T) {
	const runs = "1:initial 2:initial 3:initial"
	for _, row := range []struct {
		exact bool
		slow  int
		after des.Time
		count int
		want  pinStats
	}{
		{false, 2, 3, 2, pinStats{510.5738821444941, 596, 540, 3, runs}},
		{false, 4, 8, 1, pinStats{462.21863398057576, 593, 557, 3, runs}},
		{true, 4, 3, 1, pinStats{523.1411590635315, 640, 735, 3, runs}},
		{true, 4, 12, 2, pinStats{569.4042710706284, 719, 714, 3, runs}},
	} {
		ccfg, cfg := specRerunChain(row.exact, row.slow, row.after, row.count)
		label := fmt.Sprintf("exact=%v/slow%d/after%v/kill%d", row.exact, row.slow, row.after, row.count)
		checkPinned(t, label, ccfg, cfg, row.want)
	}
}

// TestPinnedScaleFailShape pins the bench/ scale_fail workload's chain —
// the weak-scaling configuration plus Split and a node lost one second
// into run 2 — at sizes tier-1 can afford: 256 and 1024 nodes.
func TestPinnedScaleFailShape(t *testing.T) {
	for nodes, want := range map[int]pinStats{
		256:  {44.72755547545976, 4903, 7415, 4, "1:initial 2:initial! 1:recompute 2:restart"},
		1024: {44.71687844365959, 19496, 29687, 4, "1:initial 2:initial! 1:recompute 2:restart"},
	} {
		cfg := ChainConfig{
			Mode:               ModeRCMP,
			NumJobs:            2,
			NumReducers:        nodes,
			InputPerNode:       128 * cluster.MB,
			BlockSize:          64 * cluster.MB,
			ShuffleAggregation: ShuffleAggOn,
			NoTaskSamples:      true,
			Split:              true,
			Failures:           []Injection{{AtRun: 2, After: 1, Node: 3}},
		}
		checkPinned(t, fmt.Sprintf("%d nodes", nodes), cluster.DCOConfig(nodes, 1, 1), cfg, want)
	}
}

// chainRow is one pinned run of the small aggregated-tier chain (aggChain).
type chainRow struct {
	label string
	nodes int
	inj   []Injection
	want  pinStats
}

const pinClean = "1:initial 2:initial"

// checkChainRows runs each row's aggChain and checks it against its pin.
func checkChainRows(t *testing.T, rows []chainRow) {
	t.Helper()
	for _, row := range rows {
		ccfg, cfg := aggChain(row.nodes, row.inj)
		checkPinned(t, row.label, ccfg, cfg, row.want)
	}
}

// TestPinnedChainFailureFree pins the small aggregated-tier chain
// failure-free at 16 nodes and at 4096, the size bench/'s scale_ff
// workload times.
func TestPinnedChainFailureFree(t *testing.T) {
	checkChainRows(t, []chainRow{
		{"failure-free/16", 16, nil, pinStats{5.413333333333332, 210, 288, 2, pinClean}},
		{"failure-free/4096", 4096, nil, pinStats{5.413333333333332, 49170, 73728, 2, pinClean}},
	})
}

// TestPinnedChainPulseOffsets pins the chain with one node lost at offsets
// swept across the first run: reducer startup, map phase, shuffle, output
// write, and past the chain's end.
func TestPinnedChainPulseOffsets(t *testing.T) {
	const restart = "1:initial! 1:restart 2:initial"
	pulse := func(after des.Time) []Injection { return []Injection{{AtRun: 1, After: after, Node: 3}} }
	checkChainRows(t, []chainRow{
		{"pulse/0.1", 16, pulse(0.1), pinStats{39.2582222222222, 309, 434, 3, restart}},
		{"pulse/0.25", 16, pulse(0.25), pinStats{39.4082222222222, 309, 434, 3, restart}},
		{"pulse/1", 16, pulse(1), pinStats{40.1582222222222, 308, 435, 3, restart}},
		{"pulse/2.5", 16, pulse(2.5), pinStats{41.65822222222219, 327, 455, 3, restart}},
		{"pulse/5", 16, pulse(5), pinStats{41.33488888888887, 333, 450, 4, "1:initial 2:initial! 1:recompute 2:restart"}},
		{"pulse/10", 16, pulse(10), pinStats{5.413333333333332, 211, 288, 2, pinClean}},
		{"pulse/20", 16, pulse(20), pinStats{5.413333333333332, 211, 288, 2, pinClean}},
		{"pulse/40", 16, pulse(40), pinStats{5.413333333333332, 211, 288, 2, pinClean}},
		{"pulse/60", 16, pulse(60), pinStats{5.413333333333332, 211, 288, 2, pinClean}},
	})
}

// TestPinnedChainMultiPulse pins the shapes trace schedules produce: a
// two-node simultaneous outage, and pulses aimed at two different runs.
func TestPinnedChainMultiPulse(t *testing.T) {
	checkChainRows(t, []chainRow{
		{"double", 16, []Injection{{AtRun: 1, After: 10, Node: 3, Count: 2}}, pinStats{5.413333333333332, 211, 288, 2, pinClean}},
		{"two-runs", 16, []Injection{{AtRun: 0, After: 5, Node: 7}, {AtRun: 1, After: 15, Node: 3}}, pinStats{5.413333333333332, 211, 288, 2, pinClean}},
	})
}

// TestReducerEntitlementConserved checks the dedup rule end to end under
// Hadoop within-job recovery: with three reducer waves per job, reducers
// start shuffling before the loss, between its detection and the
// re-executions, and after them, and every one of them must finish its
// shuffle having fetched exactly its share of the job's map output — a
// re-execution counted twice shows as a surplus, a skipped one as a
// shortfall. The speculative chains add re-executions won by a duplicate.
func TestReducerEntitlementConserved(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, count := range []int{1, 2} {
			for _, after := range []des.Time{1, 5, 8, 9, 10, 11, 12, 14} {
				c := pinCase{ModeHadoop, exact, 16, 3, after, count}
				ccfg, cfg := c.configs()
				checkEntitlements(t, c, ccfg, cfg)
			}
			for _, after := range []des.Time{3, 8, 12, 16} {
				ccfg, cfg := specRerunChain(exact, 4, after, count)
				checkEntitlements(t, fmt.Sprintf("spec/exact=%v/after%v/kill%d", exact, after, count), ccfg, cfg)
			}
		}
	}
}

// checkEntitlements steps the chain event by event so each reducer is read
// between the end of its shuffle and the run's recycling.
func checkEntitlements(t *testing.T, label any, ccfg cluster.Config, cfg ChainConfig) {
	t.Helper()
	cfg = cfg.withDefaults()
	ctx := NewContext(ccfg)
	if err := ctx.start(GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)}, 1); err != nil {
		t.Fatal(err)
	}
	d := ctx.session.drivers[0]
	type key struct{ run, reducer int }
	checked := map[key]bool{}
	for ctx.sim.Step() {
		r := d.current
		if r == nil || r.done {
			continue
		}
		var mapOut float64
		for _, mt := range r.maps {
			mapOut += float64(mt.outBytes)
		}
		for _, rt := range r.reduces {
			k := key{r.runIndex, rt.reducer}
			if rt.state != taskRunning || rt.shuffling || rt.step != rtStepCPU || checked[k] {
				continue
			}
			checked[k] = true
			want := mapOut * rt.shareFrac(cfg.NumReducers)
			if diff := rt.fetched - want; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%v: run %d reducer %d fetched %v, entitled to %v (off by %g)",
					label, r.runIndex, rt.reducer, rt.fetched, want, diff)
			}
		}
	}
	if _, err := d.finish(); err != nil {
		t.Fatalf("%v: %v", label, err)
	}
	if len(checked) != cfg.NumJobs*cfg.NumReducers {
		t.Errorf("%v: read %d reducers after their shuffle, want %d", label, len(checked), cfg.NumJobs*cfg.NumReducers)
	}
}

// TestReadyBitsMatchBuckets checks the exact tier's ready index against
// the bucket state it summarises after every simulated event: on
// TestPinnedFailureMatrix's exact rows, the speculative re-execution
// chains, and two TestPinnedExactFetchOrder failures whose sources span
// two bitset words. A write to a bucket's pending, fl or stalled that is
// not followed by markReady leaves a bit stale, and kickFetch would then
// skip a fetchable source or start a fetch it must not.
func TestReadyBitsMatchBuckets(t *testing.T) {
	for _, c := range []pinCase{
		{ModeRCMP, true, 16, 1, 14, 1},
		{ModeRCMP, true, 16, 1, 1, 2},
		{ModeRCMP, true, 16, 3, 19, 2},
		{ModeRCMP, true, 16, 3, 3, 1},
		{ModeHadoop, true, 16, 1, 0.1, 1},
		{ModeHadoop, true, 16, 1, 5, 2},
		{ModeHadoop, true, 16, 3, 3, 2},
		{ModeHadoop, true, 16, 3, 9, 1},
	} {
		ccfg, cfg := c.configs()
		checkReadyBits(t, c, ccfg, cfg)
	}
	for _, count := range []int{1, 2} {
		for _, after := range []des.Time{3, 8, 12, 16} {
			ccfg, cfg := specRerunChain(true, 4, after, count)
			checkReadyBits(t, fmt.Sprintf("spec/after%v/kill%d", after, count), ccfg, cfg)
		}
	}
	ccfg, cfg := exactFetchChain(65, 2, 5, 1)
	checkReadyBits(t, "n65/par2/after5/victim1", ccfg, cfg)
	ccfg, cfg = exactFetchChain(100, 5, 5, 70)
	checkReadyBits(t, "n100/par5/after5/victim70", ccfg, cfg)
}

// checkReadyBits steps the chain event by event and, after each step,
// recomputes every running reducer's ready bits from its buckets; it
// reports the first mismatch.
func checkReadyBits(t *testing.T, label any, ccfg cluster.Config, cfg ChainConfig) {
	t.Helper()
	cfg = cfg.withDefaults()
	ctx := NewContext(ccfg)
	if err := ctx.start(GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)}, 1); err != nil {
		t.Fatal(err)
	}
	d := ctx.session.drivers[0]
	chunk := float64(cfg.BlockSize) / 4
	var want [2][]uint64
	for ctx.sim.Step() {
		r := d.current
		if r == nil || r.done {
			continue
		}
		for _, rt := range r.reduces {
			if rt.state != taskRunning {
				continue
			}
			for k := range want {
				want[k] = make([]uint64, (len(rt.buckets)+63)/64)
			}
			for n := range rt.buckets {
				b := &rt.buckets[n]
				if !b.stalled && b.fl == nil && b.pending > 0 {
					want[0][n/64] |= 1 << (n % 64)
					if b.pending >= chunk {
						want[1][n/64] |= 1 << (n % 64)
					}
				}
			}
			for k := range want {
				if !slices.Equal(rt.ready[k], want[k]) {
					t.Errorf("%v: at %v run %d reducer %d: ready[%d] = %x, buckets say %x",
						label, ctx.sim.Now(), r.runIndex, rt.reducer, k, rt.ready[k], want[k])
					return
				}
			}
		}
	}
	if _, err := d.finish(); err != nil {
		t.Fatalf("%v: %v", label, err)
	}
}

// scaleFailConfigs is TestPinnedScaleFailShape's chain at any size, with
// its own failure schedule: the weak-scaling configuration plus Split on
// the aggregated tier, where every completion after a node death is a
// dense offer to all shuffling reducers.
func scaleFailConfigs(nodes int, inj ...Injection) (cluster.Config, ChainConfig) {
	return cluster.DCOConfig(nodes, 1, 1), ChainConfig{
		Mode:               ModeRCMP,
		NumJobs:            2,
		NumReducers:        nodes,
		InputPerNode:       128 * cluster.MB,
		BlockSize:          64 * cluster.MB,
		ShuffleAggregation: ShuffleAggOn,
		NoTaskSamples:      true,
		Split:              true,
		Failures:           inj,
	}
}

// TestPinnedDenseOfferShapes pins failing aggregated-tier chains whose
// dense offers see reducers that differ in share fraction or in pending
// bytes: a split ratio of 3 (non-power-of-two fractions) with a second
// failure inside the split recomputation, speculation with splitting on a
// cluster with one slow disk, and a second node lost inside run 2's
// dense window (between the first loss and its detection).
func TestPinnedDenseOfferShapes(t *testing.T) {
	for _, row := range []struct {
		label string
		nodes int
		ratio int
		slow  bool // node 7's disk at a fifth of full speed, speculation on
		inj   []Injection
		want  pinStats
	}{
		{"ratio3/run2", 128, 3, false, []Injection{{AtRun: 2, After: 2, Node: 3}}, pinStats{46.14931098634734, 2224, 3460, 4, "1:initial 2:initial! 1:recompute 2:restart"}},
		{"ratio3/run2+run3", 128, 3, false, []Injection{{AtRun: 2, After: 1, Node: 3}, {AtRun: 3, After: 1, Node: 5}}, pinStats{77.06536369212874, 2888, 4479, 6, "1:initial 2:initial! 1:recompute 2:restart! 1:recompute 2:restart"}},
		{"spec/run2", 128, 0, true, []Injection{{AtRun: 2, After: 1, Node: 3}}, pinStats{59.124913320899935, 2494, 3832, 4, "1:initial 2:initial! 1:recompute 2:restart"}},
		{"spec/ratio3/run2+run3", 128, 3, true, []Injection{{AtRun: 2, After: 6, Node: 3}, {AtRun: 3, After: 2, Node: 5}}, pinStats{96.49873937263193, 3046, 4869, 6, "1:initial 2:initial! 1:recompute 2:restart! 1:recompute 2:restart"}},
		{"second-loss/256", 256, 0, false, []Injection{{AtRun: 2, After: 1, Node: 3}, {AtRun: 2, After: 10, Node: 5}}, pinStats{53.15590411663053, 6963, 10215, 5, "1:initial 2:initial! 1:recompute 2:restart! 2:restart"}},
		{"second-loss/1024", 1024, 0, false, []Injection{{AtRun: 2, After: 1, Node: 3}, {AtRun: 2, After: 4, Node: 5}}, pinStats{47.14896279017128, 23592, 31729, 5, "1:initial 2:initial! 1:recompute 2:restart! 2:restart"}},
	} {
		ccfg, cfg := scaleFailConfigs(row.nodes, row.inj...)
		cfg.SplitRatio = row.ratio
		if row.slow {
			ccfg.NodeDiskScale = map[int]float64{7: 0.2}
			cfg.Speculation = true
		}
		checkPinned(t, row.label, ccfg, cfg, row.want)
	}
}

// sessionPin is everything a multi-tenant session reports that the
// shuffle accounting can move: the makespan and the shared event and flow
// counts, compared with ==, and each tenant's "total/started-runs".
type sessionPin struct {
	makespan float64
	events   uint64
	flows    uint64
	tenants  string
}

func (p sessionPin) literal() string {
	return fmt.Sprintf("sessionPin{%v, %d, %d, %q}", p.makespan, p.events, p.flows, p.tenants)
}

// TestPinnedSessionDenseOffers pins 128-node multi-tenant sessions on the
// aggregated tier losing a node in tenant 0's run 2: every tenant's running
// job falls back to dense offers at the same instant, so reducers of
// several runs are offered bytes between one failure and its detection.
// The split-ratio-3 rows add speculation on a cluster with one slow disk.
func TestPinnedSessionDenseOffers(t *testing.T) {
	for _, row := range []struct {
		tenants int
		ratio   int
		after   des.Time
		want    sessionPin
	}{
		{2, 0, 1, sessionPin{58.63890864795329, 4825, 6511, "48.705935378233804/4 58.63890864795329/3"}},
		{2, 0, 6, sessionPin{63.63890864795329, 4975, 6777, "53.705935378233804/4 63.63890864795329/3"}},
		{2, 0, 15, sessionPin{60.989973075589454, 4195, 6268, "13.832889973958334/2 60.989973075589454/4"}},
		{2, 3, 1, sessionPin{61.9295093520118, 4373, 5772, "61.844364979350274/4 61.9295093520118/4"}},
		{2, 3, 6, sessionPin{73.3087581583139, 4667, 6159, "73.3087581583139/4 73.3087581583139/4"}},
		{2, 3, 15, sessionPin{69.99876637824497, 3970, 5513, "28.568610911493423/2 69.99876637824497/4"}},
		{3, 0, 1, sessionPin{67.29045211450452, 7040, 8680, "52.992081940773/4 63.57503914264438/3 67.29045211450452/3"}},
		{3, 0, 6, sessionPin{75.97025637180622, 7232, 9222, "61.50863678110967/4 74.3717786815175/3 75.97025637180622/3"}},
		{3, 0, 15, sessionPin{72.63034005816007, 6564, 9078, "16.10182330729167/2 63.00913370888324/4 72.63034005816007/3"}},
		{3, 3, 1, sessionPin{102.35237531469689, 7182, 9196, "83.6327737973248/4 94.78921258503811/3 102.35237531469689/3"}},
		{3, 3, 6, sessionPin{96.74845218454202, 7238, 8838, "73.21075694375754/4 87.5069425240184/4 96.74845218454202/3"}},
		{3, 3, 15, sessionPin{90.63528062478926, 6553, 8194, "30.84333263194387/2 73.64941957063719/4 90.63528062478926/3"}},
	} {
		ccfg, cfg := scaleFailConfigs(128, Injection{AtRun: 2, After: row.after, Node: 3})
		cfg.SplitRatio = row.ratio
		if row.ratio == 3 {
			ccfg.NodeDiskScale = map[int]float64{7: 0.2}
			cfg.Speculation = true
		}
		label := fmt.Sprintf("tenants%d/ratio%d/after%v", row.tenants, row.ratio, row.after)
		res, err := NewContext(ccfg).RunMultiTenant(GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)}, row.tenants)
		if err != nil {
			t.Errorf("%s: %v", label, err)
			continue
		}
		var tenants []string
		for _, tr := range res.Tenants {
			tenants = append(tenants, fmt.Sprintf("%v/%d", float64(tr.Total), tr.StartedRuns))
		}
		got := sessionPin{float64(res.Makespan), res.Events, res.Flows, strings.Join(tenants, " ")}
		if got != row.want {
			t.Errorf("%s:\n got  %s\n want %s", label, got.literal(), row.want.literal())
		}
	}
}

// TestDenseOffersVisitFewCohorts guards offerAggDense's cost on
// TestPinnedScaleFailShape's 1024-node chain, where every dense offer
// finds the live reducers holding one bit-identical (frac, pending): an
// offer visits each pooled cohort once, so the mean pool size per offer
// must stay at most 2, and a regression to per-reducer work fails here
// without a timer. The pool never shrinks within a run, so its size after
// the step that made an offer bounds what that offer visited.
func TestDenseOffersVisitFewCohorts(t *testing.T) {
	ccfg, cfg := scaleFailConfigs(1024, Injection{AtRun: 2, After: 1, Node: 3})
	cfg = cfg.withDefaults()
	ctx := NewContext(ccfg)
	if err := ctx.start(GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)}, 1); err != nil {
		t.Fatal(err)
	}
	d := ctx.session.drivers[0]
	var last *jobRun
	remaining, offers, visits := 0, 0, 0
	for ctx.sim.Step() {
		r := d.current
		if r == nil || r.done {
			continue
		}
		if r == last && r.aggSlow && r.mapsRemaining < remaining {
			n := remaining - r.mapsRemaining
			offers += n
			visits += n * len(r.cohorts)
		}
		last, remaining = r, r.mapsRemaining
	}
	if _, err := d.finish(); err != nil {
		t.Fatal(err)
	}
	if offers < 1000 {
		t.Fatalf("%d dense offers, want the run-2 window's ≈2000", offers)
	}
	if mean := float64(visits) / float64(offers); mean > 2 {
		t.Errorf("dense offers visit %.2f cohorts on average (%d offers), want ≤ 2", mean, offers)
	}
}

// exactFetchChain is a two-job Hadoop chain on the exact shuffle tier with
// one reducer per node and the given fetch parallelism, losing victim
// after seconds into run 2 (failure-free when after is 0). A victim among
// the lowest-numbered sources is lost with fetches in flight to every
// healthy reducer (stall and abort, then the detection reset); every
// victim hosts a reducer, which is zombied and relaunched.
func exactFetchChain(nodes, par int, after des.Time, victim int) (cluster.Config, ChainConfig) {
	ccfg := cluster.DCOConfig(nodes, 1, 1)
	ccfg.FailureDetectionTimeout = 3
	cfg := ChainConfig{
		Mode:               ModeHadoop,
		NumJobs:            2,
		NumReducers:        nodes,
		InputPerNode:       128 * cluster.MB,
		BlockSize:          32 * cluster.MB,
		InputRepl:          3,
		OutputRepl:         3,
		FetchParallelism:   par,
		ShuffleAggregation: ShuffleAggOff,
	}
	if after > 0 {
		cfg.Failures = []Injection{{AtRun: 2, After: after, Node: victim}}
	}
	return ccfg, cfg
}

// TestPinnedExactFetchOrder pins exact-tier chains in which the order
// kickFetch visits sources decides which fetch flows exist: clusters whose
// source indices fall on both sides of a 64-bit word, fetch parallelism 1,
// 2 and the default 5, failure-free and losing a node mid-shuffle.
func TestPinnedExactFetchOrder(t *testing.T) {
	const runs = "1:initial 2:initial"
	for _, row := range []struct {
		nodes, par int
		after      des.Time
		victim     int
		want       pinStats
	}{
		{16, 1, 0, 0, pinStats{38.34666666666668, 376, 864, 2, runs}},
		{16, 2, 0, 0, pinStats{28.960000000000008, 360, 864, 2, runs}},
		{16, 5, 0, 0, pinStats{24.266666666666673, 355, 864, 2, runs}},
		{65, 1, 0, 0, pinStats{98.0266661699613, 1454, 9880, 2, runs}},
		{65, 2, 0, 0, pinStats{60.479999625144785, 1390, 9880, 2, runs}},
		{65, 5, 0, 0, pinStats{37.01333304979864, 1350, 9880, 2, runs}},
		{100, 1, 0, 0, pinStats{139.0933333333336, 2224, 22200, 2, runs}},
		{100, 2, 0, 0, pinStats{80.42666666666659, 2124, 22200, 2, runs}},
		{100, 5, 0, 0, pinStats{45.22666666666665, 2064, 22200, 2, runs}},
		{127, 1, 0, 0, pinStats{170.77333260615748, 2818, 35052, 2, runs}},
		{127, 2, 0, 0, pinStats{96.85333286377096, 2692, 35052, 2, runs}},
		{127, 5, 0, 0, pinStats{52.26666636733246, 2616, 35052, 2, runs}},
		{16, 1, 4, 0, pinStats{40.183322835390115, 406, 886, 2, runs}},
		{16, 2, 4, 3, pinStats{32.70285947712419, 395, 916, 2, runs}},
		{16, 5, 4, 1, pinStats{29.230833333333337, 381, 916, 2, runs}},
		{65, 1, 5, 0, pinStats{103.53743545315203, 1531, 9823, 2, runs}},
		{65, 2, 5, 1, pinStats{64.47805097220497, 1497, 10015, 2, runs}},
		{65, 5, 5, 64, pinStats{40.353992904834875, 1402, 9951, 2, runs}},
		{100, 2, 5, 0, pinStats{83.20893333333335, 2193, 22306, 2, runs}},
		{100, 5, 5, 70, pinStats{49.759625183150156, 2164, 22207, 2, runs}},
		{127, 1, 5, 0, pinStats{176.28209907074108, 2957, 34933, 2, runs}},
		{127, 5, 5, 3, pinStats{56.23123339831432, 2709, 35311, 2, runs}},
	} {
		ccfg, cfg := exactFetchChain(row.nodes, row.par, row.after, row.victim)
		label := fmt.Sprintf("n%d/par%d/after%v/victim%d", row.nodes, row.par, row.after, row.victim)
		checkPinned(t, label, ccfg, cfg, row.want)
	}
}
