package runner

import (
	"fmt"
	"maps"
	"math"

	"rcmp/internal/experiments"
)

// Grid expands a spec × sweep-dimension grid into runner jobs, one
// dimension per experiments.Dims row. An empty dimension falls back to one
// default per spec: the spec's registered Scale and Seed, and every other
// dimension's zero value (each figure's own failure position and cluster
// shape, no schedule override, the DES).
type Grid struct {
	Specs []experiments.Spec
	// Scales and Seeds, when set, replace Axes' scale and seed entries.
	Scales []experiments.Scale
	Seeds  []int64
	// Axes holds the swept values per dimension. Invalid values (a failure
	// position beyond the chain, an out-of-range cluster size) are legal
	// grid entries: their jobs complete with a recorded error.
	Axes experiments.Axes
	// SeedSet, when > 1, expands every seed in the grid into that many
	// consecutive seeds (base, base+1, ...). The JSON report aggregates
	// each such dispersion set into mean and CI95 columns (see
	// Report.Aggregates), the cheap way to tell signal from seed noise in
	// any sweep. 0 and 1 mean no expansion.
	SeedSet int
}

// Validate checks the grid's own options; dimension values are checked per
// job (see Grid.Axes). A seed set multiplies every job of the grid, so a
// runaway one fails the request instead of filling memory.
func (g Grid) Validate() error {
	if g.SeedSet < 0 || g.SeedSet > 1024 {
		return fmt.Errorf("seed_set=%d out of range [0, 1024]", g.SeedSet)
	}
	return nil
}

// Size returns how many jobs Jobs builds, without building them or the
// axes they cross; it saturates at math.MaxInt.
func (g Grid) Size() int {
	n := mulSat(len(g.Specs), max(g.SeedSet, 1))
	for _, d := range experiments.Dims() {
		vals := len(g.Axes[d.Name])
		switch {
		case d.Name == "scale" && len(g.Scales) > 0:
			vals = len(g.Scales)
		case d.Name == "seed" && len(g.Seeds) > 0:
			vals = len(g.Seeds)
		}
		n = mulSat(n, max(vals, 1))
	}
	return n
}

func mulSat(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// Jobs materializes the grid in deterministic order: specs outermost, then
// the cross product of the dimensions in table order (each seed expanded
// SeedSet-fold) — the order Run reports results in. Jobs execute through
// Spec.Exec, so grid points with invalid overrides complete with recorded
// errors.
func (g Grid) Jobs() []Job {
	axes := g.axes()
	scales, seeds := axes["scale"], axes["seed"]
	out := make([]Job, 0, g.Size())
	for _, sp := range g.Specs {
		axes["scale"], axes["seed"] = scales, seeds
		if len(scales) == 0 {
			axes["scale"] = []experiments.Config{{Scale: sp.Scale}}
		}
		if len(seeds) == 0 {
			axes["seed"] = []experiments.Config{{Seed: sp.Seed}}
		}
		axes["seed"] = expandSeedSet(axes["seed"], g.SeedSet)
		axes.Product(func(c experiments.Config) {
			out = append(out, Job{
				Name:   experiments.JobName(sp.Name, c),
				Key:    sp.Key,
				Config: c,
				Run:    sp.Exec,
				Cost:   relativeCost(sp, c),
			})
		})
	}
	return out
}

// axes returns a copy of Axes with the typed Scales and Seeds folded in.
func (g Grid) axes() experiments.Axes {
	axes := experiments.Axes{}
	maps.Copy(axes, g.Axes)
	if len(g.Scales) > 0 {
		axes["scale"] = make([]experiments.Config, len(g.Scales))
		for i, sc := range g.Scales {
			axes["scale"][i].Scale = sc
		}
	}
	if len(g.Seeds) > 0 {
		axes["seed"] = make([]experiments.Config, len(g.Seeds))
		for i, seed := range g.Seeds {
			axes["seed"][i].Seed = seed
		}
	}
	return axes
}

// expandSeedSet widens each base seed into `set` consecutive seeds, in
// base order. Duplicates from overlapping bases are kept: the grid is a
// literal cross product and the report's aggregation groups by value, so
// repeats are harmless (and visible).
func expandSeedSet(seeds []experiments.Config, set int) []experiments.Config {
	if set <= 1 {
		return seeds
	}
	out := make([]experiments.Config, 0, len(seeds)*set)
	for _, base := range seeds {
		for i := 0; i < set; i++ {
			out = append(out, experiments.Config{Seed: base.Seed + int64(i)})
		}
	}
	return out
}

// relativeCost is the per-job scheduling weight. Analytic jobs are
// closed-form evaluations — microseconds regardless of the spec — so they
// get zero weight and fill pool gaps after every DES job has started.
func relativeCost(sp experiments.Spec, c experiments.Config) float64 {
	if c.Engine == experiments.EngineAnalytic {
		return 0
	}
	return sp.RelativeCost(c.Scale)
}
