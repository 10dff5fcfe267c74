package mapreduce

import (
	"testing"

	"rcmp/internal/middleware"
)

// diamondGraph is the canonical fan-out/fan-in DAG: prep's output feeds two
// independent branches that a final join consumes together.
//
//	prep[input] → base
//	enrich[base] → enr
//	filter[base] → flt
//	join[flt, enr] → joined
func diamondGraph(cfg ChainConfig) GraphConfig {
	return GraphConfig{
		ChainConfig: cfg,
		Jobs: []middleware.Job{
			{ID: "prep", Inputs: []string{"input"}, Output: "base"},
			{ID: "enrich", Inputs: []string{"base"}, Output: "enr"},
			{ID: "filter", Inputs: []string{"base"}, Output: "flt"},
			{ID: "join", Inputs: []string{"flt", "enr"}, Output: "joined"},
		},
	}
}

// TestChainEqualsLinearGraph pins the degenerate case both ways: running a
// chain through RunChain and running the explicitly spelled-out linear
// graph through RunGraph must produce the exact same Result — same virtual
// times, same event and flow counts.
func TestChainEqualsLinearGraph(t *testing.T) {
	t.Parallel()
	ccfg := tinyCluster(4, 2, 2)
	cfg := tinyChain(3, 4, 128)
	cfg.Failures = []Injection{{AtRun: 2, After: 5, Node: 1}}

	chainRes, err1 := RunChain(ccfg, cfg)
	graphRes, err2 := NewContext(ccfg).RunGraph(GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)})
	if err1 != nil || err2 != nil {
		t.Fatalf("chain err=%v graph err=%v", err1, err2)
	}
	if chainRes.Total != graphRes.Total {
		t.Fatalf("chain total %v != graph total %v", chainRes.Total, graphRes.Total)
	}
	if chainRes.StartedRuns != graphRes.StartedRuns ||
		chainRes.Events != graphRes.Events || chainRes.Flows != graphRes.Flows {
		t.Fatalf("chain (runs=%d events=%d flows=%d) != graph (runs=%d events=%d flows=%d)",
			chainRes.StartedRuns, chainRes.Events, chainRes.Flows,
			graphRes.StartedRuns, graphRes.Events, graphRes.Flows)
	}
}

// TestDiamondFailureFree runs the diamond without failures: four jobs in
// topological order, deterministically.
func TestDiamondFailureFree(t *testing.T) {
	res, err := NewContext(tinyCluster(4, 2, 2)).RunGraph(diamondGraph(tinyChain(4, 4, 128)))
	if err != nil {
		t.Fatal(err)
	}
	if res.StartedRuns != 4 {
		t.Fatalf("started %d runs, want 4", res.StartedRuns)
	}
	again, err := NewContext(tinyCluster(4, 2, 2)).RunGraph(diamondGraph(tinyChain(4, 4, 128)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != again.Total || res.Events != again.Events {
		t.Fatalf("diamond not deterministic: %v/%d vs %v/%d",
			res.Total, res.Events, again.Total, again.Events)
	}
}

// TestDiamondRecoveryCheaperThanRestart exercises the fan-in cascade: a
// node dies while the join runs, damaging the replication-1 branch
// outputs. The graph planner recomputes only the damaged partitions of the
// jobs that actually lost data, so recovery must beat a fresh run of the
// whole graph restarted at the failure point.
func TestDiamondRecoveryCheaperThanRestart(t *testing.T) {
	base := diamondGraph(tinyChain(4, 4, 128))
	base.Seed = 11
	base.Failures = []Injection{{AtRun: 4, After: 3, Node: 2}}

	res, err := NewContext(tinyCluster(4, 2, 2)).RunGraph(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartedRuns <= 4 {
		t.Fatalf("failure at the join caused no recovery runs: %d", res.StartedRuns)
	}

	// Same failure, but with every job's mapper set forced to full size the
	// cascade degenerates toward restart cost; the partial plan must be
	// strictly cheaper in total work (task count).
	full := base
	full.NoMapOutputReuse = true
	fullRes, err := NewContext(tinyCluster(4, 2, 2)).RunGraph(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recorder.Tasks) > len(fullRes.Recorder.Tasks) {
		t.Fatalf("partial recovery ran %d tasks, full recompute only %d",
			len(res.Recorder.Tasks), len(fullRes.Recorder.Tasks))
	}
}

// TestMultiTenantSingleMatchesSolo pins the degenerate session on a DAG:
// RunMultiTenant with one tenant must complete at exactly RunGraph's time,
// since both run the same one-tenant session.
func TestMultiTenantSingleMatchesSolo(t *testing.T) {
	ccfg := tinyCluster(4, 2, 2)
	cfg := diamondGraph(tinyChain(4, 4, 128))
	cfg.Failures = []Injection{{AtRun: 2, After: 5, Node: 1}}

	solo, err := NewContext(ccfg).RunGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewContext(ccfg).RunMultiTenant(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Tenants) != 1 {
		t.Fatalf("tenants=%d", len(multi.Tenants))
	}
	if multi.Makespan != solo.Total || multi.Tenants[0].Total != solo.Total {
		t.Fatalf("1-tenant session %v != solo run %v", multi.Makespan, solo.Total)
	}
	if multi.Tenants[0].StartedRuns != solo.StartedRuns {
		t.Fatalf("1-tenant session ran %d runs, solo %d",
			multi.Tenants[0].StartedRuns, solo.StartedRuns)
	}
}

// TestMultiTenantContention pins the economics of sharing: two tenants on
// one cluster each finish no earlier than a lone tenant would, the session
// is deterministic across context reuse, and both tenants finish.
func TestMultiTenantContention(t *testing.T) {
	ccfg := tinyCluster(4, 2, 2)
	cfg := diamondGraph(tinyChain(4, 4, 128))

	solo, err := NewContext(ccfg).RunMultiTenant(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(ccfg)
	duo, err := ctx.RunMultiTenant(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(duo.Tenants) != 2 {
		t.Fatalf("tenants=%d", len(duo.Tenants))
	}
	for i, tr := range duo.Tenants {
		if tr.Total < solo.Makespan {
			t.Fatalf("tenant %d finished at %v, faster than an uncontended run (%v)",
				i, tr.Total, solo.Makespan)
		}
	}
	// Re-execution on the same context must reproduce the session exactly.
	again, err := ctx.RunMultiTenant(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if duo.Makespan != again.Makespan || duo.Events != again.Events || duo.Flows != again.Flows {
		t.Fatalf("session not deterministic: %v/%d/%d vs %v/%d/%d",
			duo.Makespan, duo.Events, duo.Flows, again.Makespan, again.Events, again.Flows)
	}
}

// TestMultiTenantFailureRecovery drives the session-wide failure path: one
// injection (scheduled by tenant 0) kills a node for both tenants, both
// cancel and replan through the graph planner against the shared slot
// table, and both complete. This is also the regression test for cancel()
// freeing the slots of its running tasks: with the leak, the cancelled
// runs' slots never return to the shared table and the session strands.
func TestMultiTenantFailureRecovery(t *testing.T) {
	ccfg := tinyCluster(4, 2, 2)
	cfg := diamondGraph(tinyChain(4, 4, 128))
	cfg.Seed = 3
	cfg.Failures = []Injection{{AtRun: 3, After: 4, Node: 1}}

	res, err := NewContext(ccfg).RunMultiTenant(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, tr := range res.Tenants {
		if tr.StartedRuns > 4 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatalf("no tenant ran recovery work: runs=%d/%d",
			res.Tenants[0].StartedRuns, res.Tenants[1].StartedRuns)
	}
}
