package runner

import (
	"math"
	"testing"

	"rcmp/internal/experiments"
)

// TestGridSize: Size counts the jobs Jobs builds without building them,
// and saturates instead of overflowing on a grid no request may run.
func TestGridSize(t *testing.T) {
	specs := experiments.Registry()[:3]
	for _, g := range []Grid{
		{Specs: specs},
		{Specs: specs, Scales: []experiments.Scale{experiments.ScalePaper, experiments.ScaleQuick}, Seeds: []int64{1, 2, 3}},
		{Specs: specs, Seeds: []int64{4, 9}, SeedSet: 3, Axes: experiments.Axes{
			"failure-at": {{FailureAt: 1}, {FailureAt: 2}},
			"engine":     {{}, {Engine: experiments.EngineAnalytic}},
			"unknown":    {{}, {}, {}},
		}},
		// The typed Scales and Seeds replace Axes' scale and seed entries.
		{Specs: specs, Scales: []experiments.Scale{experiments.ScaleQuick}, Seeds: []int64{5, 6}, Axes: experiments.Axes{
			"scale": {{}, {}, {}},
			"seed":  {{Seed: 1}, {Seed: 2}, {Seed: 3}},
		}},
	} {
		if n, want := g.Size(), len(g.Jobs()); n != want {
			t.Errorf("Size() = %d, Jobs() built %d", n, want)
		}
	}

	huge := make([]experiments.Config, 4096)
	g := Grid{
		Specs:   experiments.Registry(),
		Seeds:   make([]int64, 4096),
		SeedSet: 1024,
		Axes:    experiments.Axes{"failure-at": huge, "nodes": huge, "tenants": huge, "engine": huge},
	}
	if n := g.Size(); n != math.MaxInt {
		t.Errorf("Size() = %d on a grid of over 2^70 jobs, want it saturated at math.MaxInt", n)
	}
}
