package runner

import (
	"math"
	"strings"
	"testing"

	"rcmp/internal/experiments"
)

// fakeSeedSpec is a registry-shaped spec whose single value is a pure
// function of the seed, so aggregation arithmetic can be checked exactly.
func fakeSeedSpec() experiments.Spec {
	return experiments.Spec{
		Key: "fake", Name: "Fake", Scale: experiments.ScaleQuick,
		Run: func(c experiments.Config) (*experiments.Result, error) {
			return &experiments.Result{
				Name:   "Fake",
				Values: map[string]float64{"metric": 10 + float64(c.Seed), "flaky": math.NaN()},
			}, nil
		},
	}
}

func TestGridSeedSetExpansion(t *testing.T) {
	g := Grid{Specs: []experiments.Spec{fakeSeedSpec()}, Seeds: []int64{100}, SeedSet: 3}
	jobs := g.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("SeedSet=3: %d jobs, want 3", len(jobs))
	}
	for i, want := range []int64{100, 101, 102} {
		if jobs[i].Config.Seed != want {
			t.Errorf("job %d seed=%d, want %d", i, jobs[i].Config.Seed, want)
		}
	}
	if jobs[1].Name != "Fake/quick/seed=101" {
		t.Errorf("job name %q", jobs[1].Name)
	}

	// SeedSet 0 and 1 are no-ops.
	for _, set := range []int{0, 1} {
		g.SeedSet = set
		if n := len(g.Jobs()); n != 1 {
			t.Errorf("SeedSet=%d: %d jobs, want 1", set, n)
		}
	}
}

func TestGridEngineDimension(t *testing.T) {
	g := Grid{
		Specs: []experiments.Spec{fakeSeedSpec()},
		Axes:  experiments.Axes{"engine": {{Engine: experiments.EngineDES}, {Engine: experiments.EngineAnalytic}}},
	}
	jobs := g.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(jobs))
	}
	if strings.Contains(jobs[0].Name, "engine") {
		t.Errorf("DES job name %q should carry no engine suffix", jobs[0].Name)
	}
	if !strings.HasSuffix(jobs[1].Name, "/engine=analytic") {
		t.Errorf("analytic job name %q missing engine suffix", jobs[1].Name)
	}
	if jobs[1].Config.Engine != experiments.EngineAnalytic {
		t.Error("analytic job lost its engine")
	}
	if jobs[1].Cost != 0 {
		t.Errorf("analytic job cost %v, want 0 (closed form has no simulation weight)", jobs[1].Cost)
	}
}

func TestReportAggregatesSeedSets(t *testing.T) {
	g := Grid{Specs: []experiments.Spec{fakeSeedSpec()}, Seeds: []int64{0}, SeedSet: 3}
	results := (&Runner{Workers: 2}).Run(g.Jobs())
	rep := NewReport(results, false)
	if len(rep.Aggregates) != 1 {
		t.Fatalf("%d aggregate groups, want 1", len(rep.Aggregates))
	}
	agg := rep.Aggregates[0]
	if agg.Name != "Fake/quick" {
		t.Errorf("group name %q, want Fake/quick (seed component stripped)", agg.Name)
	}
	if len(agg.Seeds) != 3 {
		t.Fatalf("aggregated %d seeds, want 3", len(agg.Seeds))
	}
	av, ok := agg.Values["metric"]
	if !ok {
		t.Fatal("no aggregate for 'metric'")
	}
	// Values 10, 11, 12: mean 11, sd 1, CI95 = 1.96/sqrt(3).
	if math.Abs(av.Mean-11) > 1e-12 {
		t.Errorf("mean %.6f, want 11", av.Mean)
	}
	if want := 1.96 / math.Sqrt(3); math.Abs(av.CI95-want) > 1e-12 {
		t.Errorf("CI95 %.6f, want %.6f", av.CI95, want)
	}
	if _, ok := agg.Values["flaky"]; ok {
		t.Error("non-finite key aggregated; want dropped")
	}

	// Deterministic across worker counts.
	serial, err := MarshalJSONDeterministic((&Runner{Workers: 1}).Run(g.Jobs()))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MarshalJSONDeterministic(results)
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(parallel) {
		t.Error("aggregated report differs between worker counts")
	}

	// No seed sweep → no aggregates key at all: single-seed reports stay
	// byte-identical to pre-aggregation reports.
	g.SeedSet = 0
	single, err := MarshalJSONDeterministic((&Runner{Workers: 1}).Run(g.Jobs()))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(single), "aggregates") {
		t.Error("single-seed report carries an aggregates key")
	}
}
