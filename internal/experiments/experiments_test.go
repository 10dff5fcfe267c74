package experiments

import (
	"strings"
	"testing"
)

// The experiment harness tests run at ScaleQuick: they validate the shape
// of each figure's result (who wins, directionality), not absolute numbers.

func TestFig2(t *testing.T) {
	r := runOK(t, Fig2, Quick())
	if r.Values["STIC/p-zero-days"] < 0.8 {
		t.Fatalf("STIC zero-failure days %.2f, want > 0.8", r.Values["STIC/p-zero-days"])
	}
	if f := r.Values["SUG@R/failure-day-fraction"]; f < 0.09 || f > 0.15 {
		t.Fatalf("SUG@R failure-day fraction %.3f, want ~0.12", f)
	}
	if f := r.Values["STIC/failure-day-fraction"]; f < 0.14 || f > 0.20 {
		t.Fatalf("STIC failure-day fraction %.3f, want ~0.17", f)
	}
	if !strings.Contains(r.Text, "SUG@R") {
		t.Fatalf("missing series:\n%s", r.Text)
	}
}

func TestFig8aShape(t *testing.T) {
	r := runOK(t, Fig8a, Quick())
	col := " @ SLOTS 1-1, STIC"
	rcmp := r.Values["RCMP NO-SPLIT"+col]
	r2 := r.Values["HADOOP REPL-2"+col]
	r3 := r.Values["HADOOP REPL-3"+col]
	if !(rcmp <= r2 && r2 < r3) {
		t.Fatalf("failure-free ordering wrong: RCMP=%.2f REPL-2=%.2f REPL-3=%.2f", rcmp, r2, r3)
	}
	if r3 < 1.2 {
		t.Fatalf("REPL-3 slowdown %.2f, want substantial", r3)
	}
	if opt := r.Values["OPTIMISTIC"+col]; opt != rcmp {
		t.Fatalf("OPTIMISTIC (%.3f) must equal RCMP (%.3f) without failures", opt, rcmp)
	}
}

func TestFig8bShape(t *testing.T) {
	r := runOK(t, Fig8b, Quick())
	col := " @ SLOTS 1-1, STIC"
	split := r.Values["RCMP SPLIT"+col]
	nosplit := r.Values["RCMP NO-SPLIT"+col]
	r3 := r.Values["HADOOP REPL-3"+col]
	if split > nosplit*1.02 {
		t.Fatalf("split (%.2f) slower than no-split (%.2f) under failure", split, nosplit)
	}
	if r3 <= split {
		t.Fatalf("REPL-3 (%.2f) not slower than RCMP SPLIT (%.2f) under early failure", r3, split)
	}
}

func TestFig8cShape(t *testing.T) {
	r := runOK(t, Fig8c, Quick())
	col := " @ SLOTS 1-1, STIC"
	split := r.Values["RCMP SPLIT"+col]
	opt := r.Values["OPTIMISTIC"+col]
	if opt <= split {
		t.Fatalf("OPTIMISTIC (%.2f) must be much worse than RCMP (%.2f) on late failure", opt, split)
	}
	if opt < 1.5 {
		t.Fatalf("late-failure OPTIMISTIC %.2f, want near 2x", opt)
	}
}

func TestFig9Shape(t *testing.T) {
	r := runOK(t, Fig9, Quick())
	// RCMP with splitting should win or tie every double-failure scenario.
	for k, v := range r.Values {
		if strings.HasPrefix(k, "RCMP S @ ") {
			if v > 1.35 {
				t.Fatalf("RCMP split badly loses scenario %q: %.2f", k, v)
			}
		}
	}
	if len(r.Values) < 15 {
		t.Fatalf("expected 5 scenarios x 3 strategies, got %d values", len(r.Values))
	}
}

func TestFig10Shape(t *testing.T) {
	r := runOK(t, Fig10, Quick())
	for _, repl := range []string{"REPL-2", "REPL-3"} {
		at10 := r.Values[repl+" @ 10 jobs"]
		at100 := r.Values[repl+" @ 100 jobs"]
		if at10 < 1.0 {
			t.Fatalf("%s slowdown %.2f < 1 at 10 jobs", repl, at10)
		}
		drift := at100 - at10
		if drift < -0.35 || drift > 0.35 {
			t.Fatalf("%s slowdown drifts %.2f -> %.2f; paper reports stability", repl, at10, at100)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r := runOK(t, Fig11, Quick())
	// Splitting extracts more speed-up from more nodes; no-split plateaus.
	s6 := r.Values["RCMP SPLIT @ 6 nodes"]
	s10 := r.Values["RCMP SPLIT @ 10 nodes"]
	n10 := r.Values["RCMP NO-SPLIT @ 10 nodes"]
	if s10 <= n10 {
		t.Fatalf("split speed-up (%.2f) not above no-split (%.2f) at 10 nodes", s10, n10)
	}
	if s10 <= s6*0.95 {
		t.Fatalf("split speed-up did not grow with nodes: %.2f -> %.2f", s6, s10)
	}
}

// TestDCOSetupKeepsNodes holds dcoSetup to the cluster size it is given at
// both scales: Fig11's x-axis is that size.
func TestDCOSetupKeepsNodes(t *testing.T) {
	for _, c := range []Config{Paper(), Quick()} {
		for _, n := range []int{6, 10, 60} {
			if got := dcoSetup(c, n).ccfg.Nodes; got != n {
				t.Errorf("dcoSetup(%s, %d) simulates %d nodes", c.Scale, n, got)
			}
		}
	}
}

func TestFig12Shape(t *testing.T) {
	r := runOK(t, Fig12, Quick())
	noSplit := r.Values["RCMP NO-SPLIT median"]
	split := r.Values["RCMP SPLIT IN 8 median"]
	if split >= noSplit {
		t.Fatalf("splitting did not reduce median recompute mapper time: %.2f vs %.2f", split, noSplit)
	}
	if !strings.Contains(r.Text, "CDF") {
		t.Fatalf("missing CDF text:\n%s", r.Text)
	}
}

func TestFig13Shape(t *testing.T) {
	r := runOK(t, Fig13, Quick())
	// More initial reducer waves -> more recomputation speed-up, and the
	// effect is stronger under a slow shuffle (the paper's linear case).
	f1 := r.Values["FAST SHUFFLE @ 1:1"]
	f4 := r.Values["FAST SHUFFLE @ 4:1"]
	s1 := r.Values["SLOW SHUFFLE @ 1:1"]
	s4 := r.Values["SLOW SHUFFLE @ 4:1"]
	if f4 <= f1 {
		t.Fatalf("FAST: 4:1 speed-up (%.2f) not above 1:1 (%.2f)", f4, f1)
	}
	if s4 <= s1 {
		t.Fatalf("SLOW: 4:1 speed-up (%.2f) not above 1:1 (%.2f)", s4, s1)
	}
	if (s4 / s1) <= (f4 / f1 * 0.9) {
		t.Fatalf("slow-shuffle scaling (%.2f) not stronger than fast (%.2f)", s4/s1, f4/f1)
	}
}

func TestFig14Shape(t *testing.T) {
	r := runOK(t, Fig14, Quick())
	// Fewer recompute mapper waves -> higher speed-up for FAST; SLOW is flat.
	f2 := r.Values["FAST SHUFFLE @ 2 waves"]
	f6 := r.Values["FAST SHUFFLE @ 6 waves"]
	if f2 <= f6 {
		t.Fatalf("FAST: speed-up %.2f at 2 waves not above %.2f at 6", f2, f6)
	}
	s2 := r.Values["SLOW SHUFFLE @ 2 waves"]
	s6 := r.Values["SLOW SHUFFLE @ 6 waves"]
	// At quick scale the two sensitivities are close; allow 10% slack and
	// only reject a clear inversion (paper-scale margins are much wider).
	if s2/s6 > (f2/f6)*1.10 {
		t.Fatalf("SLOW shuffle clearly more wave-sensitive (%.2f) than FAST (%.2f)", s2/s6, f2/f6)
	}
}

func TestHybridShape(t *testing.T) {
	r := runOK(t, Hybrid, Quick())
	v := r.Values["hybrid vs pure"]
	// Hybrid bounds the cascade: on a late failure it should not be much
	// slower, and typically faster, than pure recomputation.
	if v > 1.25 {
		t.Fatalf("hybrid %.2f vs pure; expected comparable or better", v)
	}
}

func TestAblationScatterVsSplit(t *testing.T) {
	r := runOK(t, AblationScatterVsSplit, Quick())
	split := r.Values["SPLIT"]
	scatter := r.Values["SCATTER"]
	noSplit := r.Values["NO-SPLIT"]
	if split > scatter*1.02 || split > noSplit*1.02 {
		t.Fatalf("split (%.2f) should be the best mitigation (scatter %.2f, none %.2f)", split, scatter, noSplit)
	}
}

func TestAblationSplitRatio(t *testing.T) {
	r := runOK(t, AblationSplitRatio, Quick())
	if len(r.Values) < 3 {
		t.Fatalf("too few ratio points: %v", r.Values)
	}
	one := r.Values["split 1"]
	max := one
	var maxK string
	for k, v := range r.Values {
		if v < max {
			max, maxK = v, k
		}
	}
	if maxK == "" || maxK == "split 1" {
		t.Fatalf("no ratio beat split 1: %v", r.Values)
	}
}

func TestAblationMapReuse(t *testing.T) {
	r := runOK(t, AblationMapReuse, Quick())
	if r.Values["without reuse"] <= 1.0 {
		t.Fatalf("disabling map-output reuse did not slow recovery: %v", r.Values)
	}
}

func TestAblationIORatio(t *testing.T) {
	r := runOK(t, AblationIORatio, Quick())
	filter := r.Values["REPL-3/RCMP @ 1:1:0.3 (filter)"]
	sortLike := r.Values["REPL-3/RCMP @ 1:1:1 (sort)"]
	cogroup := r.Values["REPL-3/RCMP @ 1:1:2 (cogroup)"]
	// The paper's Section V-A claim: RCMP's relative benefit grows with the
	// output term of the I/O ratio.
	if !(filter < sortLike && sortLike < cogroup) {
		t.Fatalf("benefit not increasing with output share: %.2f %.2f %.2f", filter, sortLike, cogroup)
	}
	if cogroup < 1.3 {
		t.Fatalf("output-heavy REPL-3 slowdown %.2f, want substantial", cogroup)
	}
}

func TestAblationReclamation(t *testing.T) {
	r := runOK(t, AblationReclamation, Quick())
	v := r.Values["hybrid+reclaim"]
	// Reclamation is metadata-only: time within a few percent of hybrid.
	if v < 0.95 || v > 1.05 {
		t.Fatalf("reclamation changed running time: %.3f", v)
	}
}

func TestAblationSpeculation(t *testing.T) {
	r := runOK(t, AblationSpeculation, Quick())
	if r.Values["speculation"] >= 1.0 {
		t.Fatalf("speculation did not help a straggler cluster: %.3f", r.Values["speculation"])
	}
	if r.Values["launched"] == 0 {
		t.Fatal("no speculative tasks launched")
	}
	if f := r.Values["wasted fraction"]; f < 0 || f > 1 {
		t.Fatalf("wasted fraction %.2f out of range", f)
	}
}

func TestAblationLocality(t *testing.T) {
	r := runOK(t, AblationLocality, Quick())
	p1 := r.Values["penalty @ 1:1"]
	p16 := r.Values["penalty @ 16:1"]
	if p16 <= p1 {
		t.Fatalf("locality penalty at 16:1 (%.2f) not above flat network (%.2f)", p16, p1)
	}
	if p16 < 1.2 {
		t.Fatalf("congested locality penalty %.2f, want substantial", p16)
	}
}

func TestAblationDetectionTimeout(t *testing.T) {
	r := runOK(t, AblationDetectionTimeout, Quick())
	if r.Values["timeout 10s"] >= r.Values["timeout 120s"] {
		t.Fatalf("longer detection timeout not slower: %v", r.Values)
	}
}
