package mapreduce

import (
	"strings"
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/metrics"
)

// Edge-case and mechanism tests beyond the happy paths in driver_test.go.

func TestScatterOnlyMode(t *testing.T) {
	cfg := tinyChain(4, 4, 128)
	cfg.ScatterOnly = true
	cfg.Failures = []Injection{{AtRun: 4, After: 5, Node: 1}}
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recorder.RunsOfKind(metrics.RunRecompute)) == 0 {
		t.Fatal("no recompute runs")
	}
	// Scatter mitigates the next job's map-phase hot-spot: the regenerated
	// partition's blocks live on many nodes, so restart mappers read from
	// several sources. Hard to observe directly; assert the run completes
	// and is no slower than plain no-split.
	plain := tinyChain(4, 4, 128)
	plain.Failures = cfg.Failures
	resPlain, err := RunChain(tinyCluster(4, 1, 1), plain)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Total) > float64(resPlain.Total)*1.05 {
		t.Fatalf("scatter (%v) clearly slower than no-split (%v)", res.Total, resPlain.Total)
	}
}

func TestSlots22RunsTwoTasksPerNode(t *testing.T) {
	cfg := tinyChain(2, 8, 256)
	res, err := RunChain(tinyCluster(4, 2, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With 2 map slots per node, two mappers must overlap on some node.
	type span struct{ s, e float64 }
	byNode := map[int][]span{}
	for _, ts := range res.Recorder.Tasks {
		if ts.Kind == metrics.TaskMap {
			byNode[ts.Node] = append(byNode[ts.Node], span{float64(ts.Start), float64(ts.End)})
		}
	}
	overlap := false
	for _, spans := range byNode {
		for i := 0; i < len(spans) && !overlap; i++ {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].s < spans[j].e && spans[j].s < spans[i].e {
					overlap = true
					break
				}
			}
		}
	}
	if !overlap {
		t.Fatal("no overlapping mappers on any node despite 2 slots")
	}
}

func TestOutputHeavyRatio(t *testing.T) {
	base := tinyChain(2, 4, 128)
	res1, err := RunChain(tinyCluster(4, 1, 1), base)
	if err != nil {
		t.Fatal(err)
	}
	heavy := base
	heavy.ReduceOutputRatio = 2
	res2, err := RunChain(tinyCluster(4, 1, 1), heavy)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Total <= res1.Total {
		t.Fatalf("doubling output did not slow the chain: %v vs %v", res2.Total, res1.Total)
	}
}

func TestShuffleHeavyRatio(t *testing.T) {
	base := tinyChain(2, 4, 128)
	heavy := base
	heavy.MapOutputRatio = 2
	heavy.ReduceOutputRatio = 0.5 // keep output size equal
	res1, _ := RunChain(tinyCluster(4, 1, 1), base)
	res2, err := RunChain(tinyCluster(4, 1, 1), heavy)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Total <= res1.Total {
		t.Fatalf("doubling shuffle did not slow the chain: %v vs %v", res2.Total, res1.Total)
	}
}

func TestInjectionAfterChainEndsIsIgnored(t *testing.T) {
	cfg := tinyChain(2, 4, 64)
	// A delay far beyond the chain's lifetime: the injection fires after
	// completion and must be a no-op.
	cfg.Failures = []Injection{{AtRun: 1, After: 1e7, Node: 1}}
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartedRuns != 2 {
		t.Fatalf("started %d runs", res.StartedRuns)
	}
}

func TestInjectionOnAlreadyFailedNodeIgnored(t *testing.T) {
	cfg := tinyChain(4, 6, 128)
	cfg.Failures = []Injection{
		{AtRun: 2, After: 5, Node: 1},
		{AtRun: 3, After: 5, Node: 1}, // same node again: no-op
	}
	res, err := RunChain(tinyCluster(6, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range res.Runs {
		if r.Cancelled {
			cancelled++
		}
	}
	if cancelled != 1 {
		t.Fatalf("%d cancelled runs, want 1 (second injection ignored)", cancelled)
	}
}

func TestLastNodeNeverKilled(t *testing.T) {
	// Repeated injections cannot reduce the cluster below one node.
	cfg := tinyChain(3, 2, 64)
	for run := 1; run <= 12; run++ {
		cfg.Failures = append(cfg.Failures, Injection{AtRun: run, After: 1, Node: -1})
	}
	cfg.Seed = 9
	res, err := RunChain(tinyCluster(2, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatal("chain did not finish")
	}
}

func TestHadoopDoubleFailureRepl3(t *testing.T) {
	cfg := tinyChain(4, 6, 128)
	cfg.Mode = ModeHadoop
	cfg.OutputRepl = 3
	cfg.Failures = []Injection{
		{AtRun: 2, After: 5, Node: 1},
		{AtRun: 3, After: 5, Node: 4},
	}
	res, err := RunChain(tinyCluster(6, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartedRuns != 4 {
		t.Fatalf("hadoop started %d runs, want 4", res.StartedRuns)
	}
}

func TestHadoopFailureDuringReducePhase(t *testing.T) {
	// Inject late in a job so reducers are already shuffling or writing;
	// zombie reducers must restart and the job must still finish.
	cfg := tinyChain(2, 4, 256)
	cfg.Mode = ModeHadoop
	cfg.OutputRepl = 2
	cfg.Failures = []Injection{{AtRun: 2, After: 60, Node: 2}}
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartedRuns != 2 {
		t.Fatalf("started %d runs", res.StartedRuns)
	}
	// The job that absorbed the failure is slower than its sibling.
	if res.Runs[1].Duration() <= res.Runs[0].Duration() {
		t.Fatalf("failed job (%v) not slower than clean job (%v)",
			res.Runs[1].Duration(), res.Runs[0].Duration())
	}
}

func TestRCMPFailureDuringReducePhase(t *testing.T) {
	cfg := tinyChain(3, 4, 256)
	cfg.Failures = []Injection{{AtRun: 3, After: 90, Node: 2}}
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Runs[len(res.Runs)-1]
	if last.Cancelled {
		t.Fatal("chain ended cancelled")
	}
}

func TestReclaimAtCheckpointsChainCompletes(t *testing.T) {
	cfg := tinyChain(6, 4, 128)
	cfg.HybridEveryK = 2
	cfg.HybridRepl = 2
	cfg.ReclaimAtCheckpoints = true
	cfg.Failures = []Injection{{AtRun: 6, After: 5, Node: 0}}
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery must stay beyond the last checkpoint even though older
	// persisted state is gone.
	for _, r := range res.Recorder.RunsOfKind(metrics.RunRecompute) {
		if r.Job <= 4 {
			t.Fatalf("recompute reached reclaimed job %d", r.Job)
		}
	}
}

func TestReclaimRequiresHybrid(t *testing.T) {
	cfg := tinyChain(3, 4, 64)
	cfg.ReclaimAtCheckpoints = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("reclaim without hybrid accepted")
	}
}

func TestForceRecomputeMappersPadsSteps(t *testing.T) {
	cfg := tinyChain(2, 4, 256)
	cfg.ForceRecomputeMappers = 10
	cfg.Failures = []Injection{{AtRun: 2, After: 5, Node: 3}}
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Recorder.RunsOfKind(metrics.RunRecompute) {
		n := 0
		for _, s := range res.Recorder.Tasks {
			if s.RunIndex == run.RunIndex && s.Kind == metrics.TaskMap {
				n++
			}
		}
		if n < 10 {
			t.Fatalf("padded recompute ran %d mappers, want >= 10", n)
		}
	}
}

func TestSlowShuffleDelaysJobs(t *testing.T) {
	cc := tinyCluster(4, 1, 1)
	cfg := tinyChain(2, 4, 128)
	fast, err := RunChain(cc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc.ShuffleTransferDelay = 10
	slow, err := RunChain(cc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total <= fast.Total {
		t.Fatalf("slow shuffle (%v) not slower than fast (%v)", slow.Total, fast.Total)
	}
}

func TestChainResultAccounting(t *testing.T) {
	cfg := tinyChain(3, 4, 128)
	cfg.Failures = []Injection{{AtRun: 2, After: 5, Node: 0}}
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartedRuns != len(res.Runs) {
		t.Fatalf("StartedRuns %d != len(Runs) %d", res.StartedRuns, len(res.Runs))
	}
	// Run indices are 1..N in order, times non-decreasing.
	for i, r := range res.Runs {
		if r.RunIndex != i+1 {
			t.Fatalf("run %d has index %d", i, r.RunIndex)
		}
		if r.End < r.Start {
			t.Fatalf("run %d ends before it starts", i)
		}
		if i > 0 && r.Start < res.Runs[i-1].Start {
			t.Fatalf("run %d starts before its predecessor", i)
		}
	}
	// Total equals the last run's end.
	if res.Total != res.Runs[len(res.Runs)-1].End {
		t.Fatalf("total %v != last end %v", res.Total, res.Runs[len(res.Runs)-1].End)
	}
}

func TestDegradedClusterSlowerAfterFailure(t *testing.T) {
	cfg := tinyChain(5, 6, 256)
	cfg.Failures = []Injection{{AtRun: 2, After: 5, Node: 1}}
	res, err := RunChain(tinyCluster(6, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	for _, r := range res.Runs {
		if r.Cancelled {
			continue
		}
		if r.Kind == metrics.RunInitial && r.RunIndex == 1 {
			before = r.Duration()
		}
		if r.Kind == metrics.RunInitial && r.Job == 5 {
			after = r.Duration()
		}
	}
	if after <= before {
		t.Fatalf("post-failure job (%v) not slower than pre-failure (%v) on fewer nodes", after, before)
	}
}

func TestInputReplicationExhaustionAborts(t *testing.T) {
	// Input replicated once (repl 1): losing its holder is unrecoverable
	// even for RCMP (the paper assumes a replicated original input). The
	// planner must say so, not restart job 1 on unreadable blocks and let
	// the simulation drain. The second chain, under NoMapOutputReuse,
	// recomputes job 1 and so re-runs a mapper whose output survived but
	// whose input block lost its only replica: the planner must demand
	// that input, not re-run the mapper on it.
	cfg := tinyChain(2, 4, 128)
	cfg.InputRepl = 1
	cfg.Failures = []Injection{{AtRun: 1, After: 5, Node: 2}}
	noReuseCluster, noReuse := noReuseChain(1191)
	for _, c := range []struct {
		ccfg cluster.Config
		cfg  ChainConfig
	}{{tinyCluster(4, 1, 1), cfg}, {noReuseCluster, noReuse}} {
		_, err := RunChain(c.ccfg, c.cfg)
		if err == nil || !strings.Contains(err.Error(), "original input partition") {
			t.Errorf("NoMapOutputReuse=%v: got %v, want the planner's lost-input error", c.cfg.NoMapOutputReuse, err)
		}
	}
}
