package analytic

import (
	"runtime"
	"testing"

	"rcmp/internal/mapreduce"
	"rcmp/internal/middleware"
)

// TestPlanSessionCostIndependentOfNodes pins what docs/perf.md and the
// analytic node ceiling promise: a capacity-planning answer costs O(jobs),
// not O(nodes). A failing 4-job quick session without task samples must
// make the same number of allocations, of the same total size give or take
// slack bytes, at 2¹⁰, 2¹⁷ and 2²⁰ nodes; also without map-output reuse,
// where every recompute step re-runs all of a job's ≥ nodes mappers.
func TestPlanSessionCostIndependentOfNodes(t *testing.T) {
	// Heap bytes are counted a span at a time, so sizes may differ by a
	// few spans; one word per node is 1 MiB at 2¹⁷ nodes.
	const slack = 64 << 10
	sizes := []int{1024, 131072, 1 << 20}
	for _, noReuse := range []bool{false, true} {
		var allocs, bytes []float64
		for _, nodes := range sizes {
			cc, cfg := sticQuick(2, 2, 4)
			cc.Nodes, cfg.NumReducers = nodes, 2*nodes
			cfg.NoTaskSamples, cfg.NoMapOutputReuse = true, noReuse
			cfg.Failures = []mapreduce.Injection{{AtRun: 2, After: 10, Node: 3}}
			gcfg := mapreduce.GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(4)}
			p, err := PlanSession(cc, gcfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if p.Recovery <= 0 {
				t.Fatalf("%d nodes: recovery %g, want a failing session", nodes, p.Recovery)
			}
			answer := func() { _, err = PlanSession(cc, gcfg, 4) }
			allocs = append(allocs, testing.AllocsPerRun(10, answer))
			bytes = append(bytes, bytesPerRun(10, answer))
		}
		for i := range sizes {
			t.Logf("NoMapOutputReuse=%v, %d nodes: %.0f allocs, %.0f bytes/answer", noReuse, sizes[i], allocs[i], bytes[i])
			if allocs[i] != allocs[0] {
				t.Errorf("NoMapOutputReuse=%v: %.0f allocs/answer at %d nodes, %.0f at %d; want equal",
					noReuse, allocs[i], sizes[i], allocs[0], sizes[0])
			}
			if bytes[i] > bytes[0]+slack {
				t.Errorf("NoMapOutputReuse=%v: %.0f bytes/answer at %d nodes, %.0f at %d; want within %d",
					noReuse, bytes[i], sizes[i], bytes[0], sizes[0], slack)
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes f
// allocates per call after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
