package experiments

import (
	"strings"
	"testing"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		err  bool
	}{
		{"", EngineDES, false},
		{"des", EngineDES, false},
		{"analytic", EngineAnalytic, false},
		{"DES", 0, true},
		{"closed-form", 0, true},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseEngine(%q): err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseEngine(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	if EngineDES.String() != "des" || EngineAnalytic.String() != "analytic" {
		t.Errorf("String(): got %q/%q", EngineDES, EngineAnalytic)
	}
}

// TestNodesBoundsPerEngine pins the per-engine Nodes ceilings on both
// sides: the DES refuses above 16384 where a single in-process event loop
// stops being sane, while the analytic engine — with no event loop to
// grow — accepts up to 2^20 and refuses beyond.
func TestNodesBoundsPerEngine(t *testing.T) {
	cases := []struct {
		engine Engine
		nodes  int
		ok     bool
	}{
		{EngineDES, maxNodesOverride, true},
		{EngineDES, maxNodesOverride + 1, false},
		{EngineAnalytic, maxNodesOverride + 1, true},
		{EngineAnalytic, maxAnalyticNodes, true},
		{EngineAnalytic, maxAnalyticNodes + 1, false},
		{EngineDES, minNodesOverride, true},
		{EngineDES, minNodesOverride - 1, false},
		{EngineAnalytic, minNodesOverride - 1, false},
	}
	for _, c := range cases {
		err := Config{Nodes: c.nodes, Engine: c.engine}.validate()
		if c.ok && err != nil {
			t.Errorf("engine=%s nodes=%d: unexpected error %v", c.engine, c.nodes, err)
		}
		if !c.ok && err == nil {
			t.Errorf("engine=%s nodes=%d: accepted, want out-of-range error", c.engine, c.nodes)
		}
	}

	// The ceiling is enforced per job through Exec, like the other Config
	// guards: the error comes back, nothing panics.
	sp, ok := Lookup("weak-scaling")
	if !ok {
		t.Fatal("weak-scaling not registered")
	}
	if _, err := sp.Exec(Config{Scale: ScaleQuick, Nodes: maxNodesOverride * 2}); err == nil {
		t.Error("Exec accepted a DES run above the DES ceiling")
	}
	if _, err := sp.Exec(Config{Scale: ScaleQuick, Nodes: maxNodesOverride * 2, Engine: EngineAnalytic}); err != nil {
		t.Errorf("Exec refused an analytic run inside the analytic ceiling: %v", err)
	}
	if _, err := sp.Exec(Config{Scale: ScaleQuick, Engine: Engine(7)}); err == nil {
		t.Error("Exec accepted an out-of-enum engine")
	}
}

// TestAnalyticSweepsBeyondDESCeiling is the tentpole's reason to exist:
// the analytic engine answers the weak-scaling what-if at cluster sizes
// the DES refuses, and the answer is shaped like every other Result.
func TestAnalyticSweepsBeyondDESCeiling(t *testing.T) {
	sp, ok := Lookup("weak-scaling")
	if !ok {
		t.Fatal("weak-scaling not registered")
	}
	res, err := sp.Exec(Config{Scale: ScaleQuick, Nodes: 131072, Engine: EngineAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	key := "sim-seconds @ 131072"
	if v, ok := res.Values[key]; !ok || v <= 0 {
		t.Errorf("missing or non-positive %q in %v", key, res.Values)
	}
	if !strings.Contains(res.Text, "131072") {
		t.Errorf("report text does not mention the swept size:\n%s", res.Text)
	}
}

// TestConfigDigestDistinguishesEngines: DES and analytic answers to the
// same question must not share a result-cache slot.
func TestConfigDigestDistinguishesEngines(t *testing.T) {
	base := Config{Scale: ScaleQuick, Seed: 3}
	an := base
	an.Engine = EngineAnalytic
	if ConfigDigest("8b", base) != ConfigDigest("8b", Config{Scale: ScaleQuick, Seed: 3, Engine: EngineDES}) {
		t.Error("explicit EngineDES digests differently from the zero value")
	}
	if ConfigDigest("8b", base) == ConfigDigest("8b", an) {
		t.Error("engine not folded into the digest: des and analytic collide")
	}
}
