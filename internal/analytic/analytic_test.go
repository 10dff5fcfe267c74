package analytic

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
	"rcmp/internal/middleware"
)

// sticQuick mirrors the experiment registry's quick-scale STIC setup: the
// shape every tolerance band in this package and in internal/experiments
// was fitted on.
func sticQuick(mapSlots, redSlots, jobs int) (cluster.Config, mapreduce.ChainConfig) {
	cc := cluster.STICConfig(mapSlots, redSlots)
	cc.Nodes = 5
	cfg := mapreduce.ChainConfig{
		Mode:         mapreduce.ModeRCMP,
		NumJobs:      jobs,
		NumReducers:  5 * redSlots,
		InputPerNode: 512 * cluster.MB,
		BlockSize:    128 * cluster.MB,
	}
	return cc, cfg
}

// TestFailureFreeAgreesWithDES pins the failure-free closed form against
// the simulator on quick STIC chains: within 10% at every chain length,
// per-run overheads included.
func TestFailureFreeAgreesWithDES(t *testing.T) {
	for _, jobs := range []int{1, 2, 4} {
		cc, cfg := sticQuick(1, 1, jobs)
		des, err := mapreduce.RunChain(cc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		an, err := RunChain(cc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(an.Total) / float64(des.Total)
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("jobs=%d: analytic %.1f vs DES %.1f (ratio %.3f), want within 10%%",
				jobs, float64(an.Total), float64(des.Total), ratio)
		}
	}
}

// TestRecoveryAgreesWithDES pins the recovery model: same started-run
// count and cancelled-run structure as the DES, and totals within 10%
// for both SPLIT and NO-SPLIT on the quick STIC failure scenario.
func TestRecoveryAgreesWithDES(t *testing.T) {
	for _, split := range []bool{false, true} {
		cc, cfg := sticQuick(1, 1, 4)
		cfg.Failures = []mapreduce.Injection{{AtRun: 3, After: 15, Node: 3}}
		cfg.Split = split
		if split {
			cfg.SplitRatio = 4
		}
		des, err := mapreduce.RunChain(cc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		an, err := RunChain(cc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if an.StartedRuns != des.StartedRuns {
			t.Errorf("split=%v: started runs %d vs DES %d", split, an.StartedRuns, des.StartedRuns)
		}
		if len(an.Runs) != len(des.Runs) {
			t.Fatalf("split=%v: %d run stats vs DES %d", split, len(an.Runs), len(des.Runs))
		}
		for i := range an.Runs {
			if an.Runs[i].Kind != des.Runs[i].Kind || an.Runs[i].Job != des.Runs[i].Job ||
				an.Runs[i].Cancelled != des.Runs[i].Cancelled {
				t.Errorf("split=%v run %d: (job=%d kind=%s cancelled=%v) vs DES (job=%d kind=%s cancelled=%v)",
					split, i, an.Runs[i].Job, an.Runs[i].Kind, an.Runs[i].Cancelled,
					des.Runs[i].Job, des.Runs[i].Kind, des.Runs[i].Cancelled)
			}
		}
		ratio := float64(an.Total) / float64(des.Total)
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("split=%v: analytic %.1f vs DES %.1f (ratio %.3f), want within 10%%",
				split, float64(an.Total), float64(des.Total), ratio)
		}
	}
}

// TestNoEventLoopArtifacts checks the contract that lets callers tell the
// engines apart: analytic results carry no event or flow counts.
func TestNoEventLoopArtifacts(t *testing.T) {
	cc, cfg := sticQuick(1, 1, 2)
	res, err := RunChain(cc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 0 || res.Flows != 0 {
		t.Errorf("analytic result has events=%d flows=%d, want 0/0", res.Events, res.Flows)
	}
}

// TestMakespanMonotoneInWork is the model's basic sanity property: more
// work can never finish sooner. Swept over per-node input volume and
// chain length.
func TestMakespanMonotoneInWork(t *testing.T) {
	prev := 0.0
	for _, mb := range []int64{128, 256, 512, 1024, 2048} {
		cc, cfg := sticQuick(1, 1, 3)
		cfg.InputPerNode = mb * cluster.MB
		res, err := RunChain(cc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Total) < prev {
			t.Errorf("input %d MB: makespan %.2f < previous %.2f — not monotone in work", mb, float64(res.Total), prev)
		}
		prev = float64(res.Total)
	}
	prev = 0
	for jobs := 1; jobs <= 8; jobs++ {
		cc, cfg := sticQuick(1, 1, jobs)
		res, err := RunChain(cc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Total) < prev {
			t.Errorf("jobs=%d: makespan %.2f < previous %.2f — not monotone in chain length", jobs, float64(res.Total), prev)
		}
		prev = float64(res.Total)
	}
}

// TestRecoveryMonotoneInUtilization checks the multi-tenant contract the
// MultiTenant experiment reads off the model: session makespan and the
// recovery delta (failed session minus failure-free session) are
// non-decreasing in the tenant count, i.e. recovery only gets more
// expensive as the cluster fills.
func TestRecoveryMonotoneInUtilization(t *testing.T) {
	cc, cfg := sticQuick(2, 2, 4)
	cfg.Failures = []mapreduce.Injection{{AtRun: 2, After: 10, Node: 3}}
	gcfg := mapreduce.GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(4)}
	freeCfg := gcfg
	freeCfg.Failures = nil

	prevMk, prevRec := 0.0, 0.0
	for tenants := 1; tenants <= 8; tenants *= 2 {
		failed, err := RunMultiTenant(cc, gcfg, tenants)
		if err != nil {
			t.Fatal(err)
		}
		free, err := RunMultiTenant(cc, freeCfg, tenants)
		if err != nil {
			t.Fatal(err)
		}
		mk := float64(failed.Makespan)
		rec := mk - float64(free.Makespan)
		if mk < prevMk {
			t.Errorf("tenants=%d: makespan %.2f < %.2f at half the tenants", tenants, mk, prevMk)
		}
		if rec < prevRec-1e-9 {
			t.Errorf("tenants=%d: recovery delta %.2f < %.2f at half the tenants", tenants, rec, prevRec)
		}
		if len(failed.Tenants) != tenants {
			t.Fatalf("tenants=%d: %d tenant results", tenants, len(failed.Tenants))
		}
		prevMk, prevRec = mk, rec
	}
}

// TestGraphsAgreeWithDES holds the twin to the simulator's reading of a job
// graph: both accept or both reject it, and where both run it, job i is
// the same job on each engine (the same map-task count at every
// topological position). Both read one core.Topology, so an external input
// need not be called "input", independent jobs are ordered by name (not
// as declared), and duplicate job IDs are an error on both.
func TestGraphsAgreeWithDES(t *testing.T) {
	cases := []struct {
		name    string
		jobs    []middleware.Job
		wantErr bool
	}{
		{name: "dagdemo external input raw", jobs: []middleware.Job{
			{ID: "ingest", Inputs: []string{"raw"}, Output: "clean"},
			{ID: "enrich", Inputs: []string{"clean"}, Output: "enr"},
			{ID: "filter", Inputs: []string{"clean"}, Output: "flt"},
			{ID: "join", Inputs: []string{"flt", "enr"}, Output: "result"},
		}},
		// Declared z, a, j; core.Topology orders a j z (j reads a's output
		// and the external input, so it is ready before z by name). j's
		// two inputs make the order show in the map task counts.
		{name: "declared z a j", jobs: []middleware.Job{
			{ID: "z", Inputs: []string{"input"}, Output: "fz"},
			{ID: "a", Inputs: []string{"input"}, Output: "fa"},
			{ID: "j", Inputs: []string{"fa", "input"}, Output: "fj"},
		}},
		{name: "duplicate job ID", wantErr: true, jobs: []middleware.Job{
			{ID: "a", Inputs: []string{"input"}, Output: "x"},
			{ID: "a", Inputs: []string{"x"}, Output: "y"},
		}},
	}
	mapsPerJob := func(res *mapreduce.Result, n int) []int {
		maps := make([]int, n)
		for _, s := range res.Recorder.Tasks {
			if s.Kind == metrics.TaskMap && s.RunKind == metrics.RunInitial {
				maps[s.Job-1]++
			}
		}
		return maps
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc, cfg := sticQuick(1, 1, 0)
			gcfg := mapreduce.GraphConfig{ChainConfig: cfg, Jobs: tc.jobs}
			desRes, desErr := mapreduce.NewContext(cc).RunGraph(gcfg)
			anRes, anErr := RunGraph(cc, gcfg)
			if tc.wantErr {
				if desErr == nil || anErr == nil {
					t.Fatalf("DES err %v, twin err %v: want both to reject the graph", desErr, anErr)
				}
				return
			}
			if desErr != nil || anErr != nil {
				t.Fatalf("DES err %v, twin err %v: want both to run the graph", desErr, anErr)
			}
			desMaps, anMaps := mapsPerJob(desRes, len(tc.jobs)), mapsPerJob(anRes, len(tc.jobs))
			if !slices.Equal(desMaps, anMaps) {
				t.Fatalf("map tasks per job position: DES %v, twin %v", desMaps, anMaps)
			}
		})
	}
}

// runSequence renders a result's runs as "<job><kind>[✗]" tokens, e.g.
// "1ini 2ini✗ 1rec 2res 3ini": what ran, in order, and what was cancelled.
func runSequence(res *mapreduce.Result) string {
	var b strings.Builder
	for i, r := range res.Runs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d%s", r.Job, r.Kind[:3])
		if r.Cancelled {
			b.WriteString("✗")
		}
	}
	return b.String()
}

// errShape is an engine error with its partition index masked: the twin
// names the partition its loss model pins down, the simulator the first it
// finds. The constructor, the file and the replication must agree.
var errShape = regexp.MustCompile(`(partition |/p)[0-9]+`)

// TestDecisionsAgreeWithDES holds the twin to the simulator's recovery
// decisions: on every case both engines run the same (job, kind,
// cancelled) sequence, or both end in the same error. Only the pricing of
// each run may differ. Both engines drive one core.Cursor; the twin plans
// at job granularity (a produced file whose replication is at most the
// dead count has lost partitions), the DES over its per-task layout, and
// each case keeps the failure and its detection inside the same run on
// both. The twin fails a run only on a loss it can pin to named victims,
// so scattered and random victims, which the simulator survives, leave it
// answering; desOnly cases are the losses it cannot pin, where the DES
// fails and the twin answers.
func TestDecisionsAgreeWithDES(t *testing.T) {
	type tc struct {
		name    string
		jobs    []middleware.Job
		edit    func(*mapreduce.ChainConfig)
		desOnly bool
	}
	at := func(run int, injs ...mapreduce.Injection) func(*mapreduce.ChainConfig) {
		return func(cfg *mapreduce.ChainConfig) {
			for _, inj := range injs {
				inj.AtRun, inj.After = run, 15
				cfg.Failures = append(cfg.Failures, inj)
			}
		}
	}
	fail := func(run, count int) func(*mapreduce.ChainConfig) {
		return at(run, mapreduce.Injection{Node: 3, Count: count})
	}
	then := func(a, b func(*mapreduce.ChainConfig)) func(*mapreduce.ChainConfig) {
		return func(cfg *mapreduce.ChainConfig) { a(cfg); b(cfg) }
	}
	hadoop := func(repl int) func(*mapreduce.ChainConfig) {
		return func(cfg *mapreduce.ChainConfig) { cfg.Mode, cfg.OutputRepl = mapreduce.ModeHadoop, repl }
	}
	inputRepl := func(r int) func(*mapreduce.ChainConfig) {
		return func(cfg *mapreduce.ChainConfig) { cfg.InputRepl = r }
	}
	scattered := at(2, mapreduce.Injection{Node: 0}, mapreduce.Injection{Node: 2}, mapreduce.Injection{Node: 4})
	random3 := at(2, mapreduce.Injection{Node: -1}, mapreduce.Injection{Node: -1}, mapreduce.Injection{Node: -1})
	cases := []tc{
		// Order a z j: the failure in z's run loses a partition of a's
		// completed output, which pending j reads, so a recomputes
		// although it is no ancestor of the frontier z.
		{name: "fan-in z a j fail 2", jobs: []middleware.Job{
			{ID: "z", Inputs: []string{"input"}, Output: "fz"},
			{ID: "a", Inputs: []string{"input"}, Output: "fa"},
			{ID: "j", Inputs: []string{"fa", "fz"}, Output: "fj"},
		}, edit: fail(2, 1)},
		{name: "chain InputRepl 1 fail 3", jobs: middleware.Chain(4), edit: then(fail(3, 1), inputRepl(1))},
		// Node 3 holds partitions 1–3 of the input at InputRepl 3; with
		// 2 and 4 it holds all of partition 2's.
		{name: "chain consecutive 2 3 4 fail 2", jobs: middleware.Chain(4),
			edit: at(2, mapreduce.Injection{Node: 2}, mapreduce.Injection{Node: 3}, mapreduce.Injection{Node: 4})},
		// Three dead nodes of five, but no input partition lies on all
		// three: the simulator recovers, and so must the twin.
		{name: "chain scattered 0 2 4 fail 2", jobs: middleware.Chain(4), edit: scattered},
		{name: "chain random 3 fail 2", jobs: middleware.Chain(4), edit: random3},
		{name: "chain InputRepl 1 random fail 3", jobs: middleware.Chain(4),
			edit: then(at(3, mapreduce.Injection{Node: -1}), inputRepl(1)), desOnly: true},
		{name: "hadoop repl 3 scattered 0 2 4", jobs: middleware.Chain(4), edit: then(scattered, hadoop(3))},
		{name: "hadoop repl 3 random 3", jobs: middleware.Chain(4), edit: then(random3, hadoop(3))},
		{name: "hadoop InputRepl 1 fail 1", jobs: middleware.Chain(4), edit: then(then(fail(1, 1), hadoop(3)), inputRepl(1))},
		{name: "hadoop repl 1 pulse 2 at 3", jobs: middleware.Chain(4), edit: then(fail(3, 2), hadoop(1))},
		// Whether the two victims hold both replicas of one partition
		// depends on each writer's placement cursor: per-task layout.
		{name: "hadoop repl 2 pulse 2 at 3", jobs: middleware.Chain(4), edit: then(fail(3, 2), hadoop(2)), desOnly: true},
	}
	diamond := []middleware.Job{
		{ID: "ingest", Inputs: []string{"raw"}, Output: "clean"},
		{ID: "enrich", Inputs: []string{"clean"}, Output: "enr"},
		{ID: "filter", Inputs: []string{"clean"}, Output: "flt"},
		{ID: "join", Inputs: []string{"flt", "enr"}, Output: "result"},
	}
	for run := 1; run <= len(diamond); run++ {
		cases = append(cases, tc{name: fmt.Sprintf("diamond fail %d", run), jobs: diamond, edit: fail(run, 1)})
	}
	variants := []struct {
		name string
		edit func(*mapreduce.ChainConfig)
	}{
		{"no-split", func(*mapreduce.ChainConfig) {}},
		{"split", func(cfg *mapreduce.ChainConfig) { cfg.Split, cfg.SplitRatio = true, 4 }},
		{"no-reuse", func(cfg *mapreduce.ChainConfig) { cfg.NoMapOutputReuse = true }},
	}
	for _, v := range variants {
		for run := 1; run <= 4; run++ {
			cases = append(cases, tc{name: fmt.Sprintf("chain %s fail %d", v.name, run),
				jobs: middleware.Chain(4), edit: then(fail(run, 1), v.edit)})
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cc, cfg := sticQuick(1, 1, 0)
			c.edit(&cfg)
			gcfg := mapreduce.GraphConfig{ChainConfig: cfg, Jobs: c.jobs}
			desRes, desErr := mapreduce.NewContext(cc).RunGraph(gcfg)
			anRes, anErr := RunGraph(cc, gcfg)
			if c.desOnly {
				if desErr == nil || anErr != nil {
					t.Fatalf("DES err %v, twin err %v: want the DES alone to fail", desErr, anErr)
				}
				t.Logf("DES failed (%v), twin ran %q", desErr, runSequence(anRes))
				return
			}
			switch {
			case desErr != nil && anErr != nil:
				if d, a := errShape.ReplaceAllString(desErr.Error(), "$1#"), errShape.ReplaceAllString(anErr.Error(), "$1#"); d != a {
					t.Fatalf("errors differ:\n  DES  %v\n  twin %v", desErr, anErr)
				}
				t.Logf("both failed: DES %v; twin %v", desErr, anErr)
				return
			case desErr != nil:
				t.Fatalf("DES failed (%v), twin ran %q", desErr, runSequence(anRes))
			case anErr != nil:
				t.Fatalf("twin failed (%v), DES ran %q", anErr, runSequence(desRes))
			}
			if d, a := runSequence(desRes), runSequence(anRes); d != a {
				t.Fatalf("run sequences differ:\n  DES  %s\n  twin %s", d, a)
			}
		})
	}
}

// TestMultiFailureRunSequencesPinned states a limit of the twin (ROADMAP
// item 11) by pinning it: where a second failure follows a recovery, the
// twin prices the recompute step or the restart differently, so the second
// detection lands in a different run than the simulator's and the
// (job, kind, cancelled) sequences part. A pulse of k victims gives the
// simulator k detections at one instant and the twin one, so each extra
// simulator detection cancels the recompute step the previous one just
// started. The cases are the six quick-scale chain runs of figures 9,
// double-failure and trace-replay whose sequences differ, and a 3-victim
// pulse. Both sequences are pinned so a pricing or detection change that
// moves either one shows here before any digest moves.
func TestMultiFailureRunSequencesPinned(t *testing.T) {
	at := func(run, node, count int) mapreduce.Injection {
		return mapreduce.Injection{AtRun: run, After: 15, Node: node, Count: count}
	}
	split := func(cfg *mapreduce.ChainConfig) { cfg.Split, cfg.SplitRatio = true, 4 }
	for _, c := range []struct {
		name      string
		failures  []mapreduce.Injection
		edit      func(*mapreduce.ChainConfig)
		des, twin string
	}{
		{"fig9 2,3", []mapreduce.Injection{at(2, 3, 0), at(3, 4, 0)}, nil,
			"1ini 2ini✗ 1rec 2res✗ 1rec 2res 3ini 4ini",
			"1ini 2ini✗ 1rec✗ 1rec 2res 3ini 4ini"},
		{"fig9 3,4", []mapreduce.Injection{at(3, 3, 0), at(4, 4, 0)}, nil,
			"1ini 2ini 3ini✗ 1rec 2rec✗ 1rec 2rec 3res 4ini",
			"1ini 2ini 3ini✗ 1rec✗ 1rec 2rec 3res 4ini"},
		{"double-failure random split", []mapreduce.Injection{at(3, -1, 1), at(4, -1, 1)}, split,
			"1ini 2ini 3ini✗ 1rec 2rec✗ 1rec 2rec 3res 4ini",
			"1ini 2ini 3ini✗ 1rec 2rec 3res✗ 1rec 2rec 3res 4ini"},
		{"double-failure random", []mapreduce.Injection{at(3, -1, 1), at(4, -1, 1)}, nil,
			"1ini 2ini 3ini✗ 1rec 2rec✗ 1rec 2rec 3res 4ini",
			"1ini 2ini 3ini✗ 1rec✗ 1rec 2rec 3res 4ini"},
		{"trace-replay pulse 2 then 1", []mapreduce.Injection{at(1, -1, 2), at(4, -1, 1)},
			func(cfg *mapreduce.ChainConfig) { cfg.InputRepl = 5 },
			"1ini✗ 1res✗ 1res 2ini✗ 1rec 2res 3ini 4ini",
			"1ini✗ 1res 2ini 3ini✗ 1rec 2rec 3res 4ini"},
		{"trace-replay pulse 2 then 1 split", []mapreduce.Injection{at(1, -1, 2), at(4, -1, 1)},
			func(cfg *mapreduce.ChainConfig) { cfg.InputRepl = 5; split(cfg) },
			"1ini✗ 1res✗ 1res 2ini✗ 1rec 2res 3ini 4ini",
			"1ini✗ 1res 2ini 3ini✗ 1rec 2rec 3res 4ini"},
		{"pulse 3 at 2", []mapreduce.Injection{at(2, -1, 3)}, nil,
			"1ini 2ini✗ 1rec✗ 1rec✗ 1rec 2res 3ini 4ini",
			"1ini 2ini✗ 1rec 2res 3ini 4ini"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cc, cfg := sticQuick(1, 1, 4)
			cfg.Failures = c.failures
			if c.edit != nil {
				c.edit(&cfg)
			}
			des, err := mapreduce.NewContext(cc).RunChain(cfg)
			if err != nil {
				t.Fatalf("DES: %v", err)
			}
			twin, err := RunChain(cc, cfg)
			if err != nil {
				t.Fatalf("twin: %v", err)
			}
			if got := runSequence(des); got != c.des {
				t.Errorf("DES ran  %s\n          pinned %s", got, c.des)
			}
			if got := runSequence(twin); got != c.twin {
				t.Errorf("twin ran %s\n          pinned %s", got, c.twin)
			}
		})
	}
}
