package mapreduce

import (
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/des"
	"rcmp/internal/metrics"
)

// nested_failure_test.go is the simulated-engine mirror of internal/dmr's
// TestNestedFailureDuringRecovery: a second failure lands while the cascade
// triggered by the first is still recomputing, so relaunched tasks must
// start from a clean slate (launchReduce's outFlows/owedRewrites clearing)
// on the second cascading hop.

// nestedChain is the shared scenario: failure during job 3 of a 5-job
// chain, then a second failure timed into the recomputation runs the first
// one triggers (run 4 is always the first recompute step of the cascade).
func nestedChain(secondAfter des.Time, split bool) (res *Result, err error) {
	cfg := tinyChain(5, 6, 128)
	cfg.Split = split
	cfg.Seed = 11
	cfg.Failures = []Injection{
		{AtRun: 3, After: 5, Node: 2},
		{AtRun: 4, After: secondAfter, Node: 4},
	}
	ccfg := tinyCluster(6, 1, 1)
	// A short detection timeout keeps the second detection inside the
	// recovery window instead of trailing the whole cascade.
	ccfg.FailureDetectionTimeout = 3
	return RunChain(ccfg, cfg)
}

func TestNestedFailureDuringRecovery(t *testing.T) {
	res, err := nestedChain(1, true)
	if err != nil {
		t.Fatal(err)
	}
	// The first failure cancels a running initial run; the second must
	// land during the cascade, cancelling a recomputation run — that is
	// the nested FAIL 4,7-style case the paper's Figure 9 calls out.
	var cancelledInitial, cancelledRecompute, recomputes int
	lastCancelled := -1
	for _, r := range res.Runs {
		switch {
		case r.Cancelled && r.Kind == metrics.RunInitial:
			cancelledInitial++
		case r.Cancelled && r.Kind == metrics.RunRecompute:
			cancelledRecompute++
		case r.Kind == metrics.RunRecompute:
			recomputes++
		}
		if r.Cancelled && r.RunIndex > lastCancelled {
			lastCancelled = r.RunIndex
		}
	}
	if cancelledInitial == 0 {
		t.Fatalf("first failure never cancelled an initial run: %+v", res.Runs)
	}
	if cancelledRecompute == 0 {
		t.Fatalf("second failure did not land during recomputation: %+v", res.Runs)
	}
	// The re-planned cascade must keep recomputing after the nested
	// cancellation — the second hop relaunches tasks that already went
	// through a failure once.
	var recomputesAfter int
	for _, r := range res.Runs {
		if r.Kind == metrics.RunRecompute && !r.Cancelled && r.RunIndex > lastCancelled {
			recomputesAfter++
		}
	}
	if recomputesAfter == 0 {
		t.Fatalf("no recomputation after the nested cancellation (last cancelled run %d): %+v", lastCancelled, res.Runs)
	}

	// Same scenario twice: the nested cascade must stay deterministic.
	again, err := nestedChain(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != again.Total || res.StartedRuns != again.StartedRuns {
		t.Fatalf("nested recovery not deterministic: %v/%d vs %v/%d",
			res.Total, res.StartedRuns, again.Total, again.StartedRuns)
	}
}

// TestNestedFailureOffsetsComplete sweeps the second failure across the
// recovery window — shuffle, output writes, and the restart boundary all
// get hit at some offset — with and without reducer splitting. Every
// variant must drive the chain to completion.
func TestNestedFailureOffsetsComplete(t *testing.T) {
	for _, split := range []bool{false, true} {
		for _, after := range []des.Time{0.5, 2, 5, 10, 20, 40} {
			res, err := nestedChain(after, split)
			if err != nil {
				t.Fatalf("split=%v second-after=%v: %v", split, after, err)
			}
			if res.StartedRuns <= 5 {
				t.Fatalf("split=%v second-after=%v: %d runs, failures never bit", split, after, res.StartedRuns)
			}
		}
	}
}

// TestHadoopDoubleFailureRelaunchesCleanly drives the within-job recovery
// path: with replicated outputs, a second node dies while reducers already
// re-queued by the first detection are mid-shuffle or mid-write. Zombie
// relaunches must forget the previous incarnation's output phase.
func TestHadoopDoubleFailureRelaunchesCleanly(t *testing.T) {
	for _, secondAfter := range []des.Time{4, 8, 15, 25} {
		cfg := tinyChain(3, 5, 128)
		cfg.Mode = ModeHadoop
		cfg.OutputRepl = 3
		cfg.Failures = []Injection{
			{AtRun: 2, After: 2, Node: 1},
			{AtRun: 2, After: secondAfter, Node: 3},
		}
		ccfg := tinyCluster(6, 1, 1)
		ccfg.FailureDetectionTimeout = 3
		res, err := RunChain(ccfg, cfg)
		if err != nil {
			t.Fatalf("second-after=%v: %v", secondAfter, err)
		}
		if res.StartedRuns != 3 {
			t.Fatalf("second-after=%v: Hadoop recovery is within-job, got %d runs", secondAfter, res.StartedRuns)
		}
	}
}

// TestLaunchReduceClearsPreviousIncarnation pins PR 2's relaunch-clearing
// fix directly: a reduce task re-queued after going zombie carries its
// previous incarnation's output-phase state (in-flight writes, owed
// replica rewrites, pending counts), and launchReduce must wipe all of it.
// A stale owedRewrites debt would let a later detection start a rewrite
// flow for a reducer that is still shuffling and drive reduceDone twice on
// the second cascading hop; the end-to-end sweeps above exercise the
// timing, this test pins the invariant itself.
func TestLaunchReduceClearsPreviousIncarnation(t *testing.T) {
	sim := des.New()
	ccfg := tinyCluster(4, 1, 1)
	chain := tinyChain(1, 2, 64)
	d := &Driver{sim: sim, clus: cluster.New(sim, ccfg), cfg: chain.withDefaults()}
	r := &jobRun{d: d, slots: &slotTable{redFree: []int{1, 0, 0, 0}}}

	rt := &reduceTask{reducer: 0, splits: 1, node: 2}
	rt.outFlows = []outFlow{{nil, 3}}
	rt.owedRewrites = []int{3}
	rt.outPending = 2
	rt.outBytes = 99
	rt.outReplicas = []int{2, 3}
	rt.needResupply = 7
	rt.inflight = 0

	r.launchReduce(rt, 0)
	if len(rt.outFlows) != 0 || len(rt.owedRewrites) != 0 {
		t.Fatalf("relaunch kept output-phase debts: outFlows=%v owedRewrites=%v", rt.outFlows, rt.owedRewrites)
	}
	if rt.outPending != 0 || rt.outBytes != 0 || len(rt.outReplicas) != 0 {
		t.Fatalf("relaunch kept output-phase state: pending=%d bytes=%d replicas=%v",
			rt.outPending, rt.outBytes, rt.outReplicas)
	}
	if rt.needResupply != 0 || rt.fetched != 0 || rt.shuffling {
		t.Fatalf("relaunch kept shuffle state: resupply=%v fetched=%v shuffling=%v",
			rt.needResupply, rt.fetched, rt.shuffling)
	}
	if rt.state != taskRunning || rt.node != 0 {
		t.Fatalf("relaunch did not take the slot: state=%v node=%d", rt.state, rt.node)
	}
}

// TestInjectionCountKillsBatch exercises the multi-node injection: an
// outage-style Count=2 pulse must cost strictly more recovery than a
// single-node failure at the same point, stay deterministic, and never
// take the last alive node.
func TestInjectionCountKillsBatch(t *testing.T) {
	chain := func(count int) *Result {
		cfg := tinyChain(4, 4, 128)
		cfg.Seed = 7
		cfg.Failures = []Injection{{AtRun: 3, After: 5, Node: 2, Count: count}}
		res, err := RunChain(tinyCluster(5, 1, 1), cfg)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		return res
	}
	single, double := chain(1), chain(2)
	if double.Total <= single.Total {
		t.Fatalf("double failure (%v) not slower than single (%v)", double.Total, single.Total)
	}
	if again := chain(2); again.Total != double.Total {
		t.Fatalf("multi-node injection not deterministic: %v vs %v", again.Total, double.Total)
	}
	// An absurd batch on a tiny cluster: the injector must stop at one
	// alive node and the chain must still finish on what remains.
	cfg := tinyChain(3, 3, 128)
	cfg.Failures = []Injection{{AtRun: 2, After: 5, Node: 0, Count: 100}}
	cfg.InputRepl = 4
	res, err := RunChain(tinyCluster(4, 1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatalf("total %v", res.Total)
	}
}
