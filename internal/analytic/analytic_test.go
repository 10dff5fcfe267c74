package analytic

import (
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
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
	gcfg := mapreduce.GraphConfig{ChainConfig: cfg, Jobs: nil}
	for i := 1; i <= 4; i++ {
		gcfg.Jobs = append(gcfg.Jobs, mapreduce.GraphJob{
			Name: "job", Inputs: []string{map[bool]string{true: "input", false: out(i - 1)}[i == 1]}, Output: out(i),
		})
	}
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

func out(i int) string {
	return "out" + string(rune('0'+i))
}
