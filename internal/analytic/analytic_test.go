package analytic

import (
	"slices"
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
		an, err := Default.RunChain(cc, cfg)
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
		an, err := Default.RunChain(cc, cfg)
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
	res, err := Default.RunChain(cc, cfg)
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
		res, err := Default.RunChain(cc, cfg)
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
		res, err := Default.RunChain(cc, cfg)
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
		failed, err := Default.RunMultiTenant(cc, gcfg, tenants)
		if err != nil {
			t.Fatal(err)
		}
		free, err := Default.RunMultiTenant(cc, freeCfg, tenants)
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
			anRes, anErr := Default.RunGraph(cc, gcfg)
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
