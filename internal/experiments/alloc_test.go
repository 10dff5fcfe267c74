package experiments

import (
	"runtime/debug"
	"testing"

	"rcmp/internal/mapreduce"
)

// TestWeakScalingAllocsDeterministic pins what a weak-scaling chain
// allocates on a warm Context the caller owns: the same count on every
// fresh Context, and no more than a committed ceiling (about 10 % above
// the 86, 103 and 1192 allocs per run measured on go1.24 when they were
// set; the chains now make 84, 101 and 1190), so an allocation regression
// on the simulator's hot path fails here deterministically. The count
// depends on the order dfs.Reset refills its free lists, which is why that
// order is by file name.
//
// The measured path must not assert an interface type at a call site whose
// run-time cache may still be empty: the runtime fills that cache at a
// random call, about one in a thousand, and the fill allocates. A per-run
// rand.New (its Source64 assertion) moved one context's count by one in
// about a third of processes.
//
// The other source of variation is fmt.Sprintf's printer cache, a
// sync.Pool: a garbage collection during the run empties it, and the next
// Sprintf calls allocate again (+2 per run on the failing chain, and on the
// others under GOGC=5). The collector is therefore held off while a chain
// is measured. The race runtime drops sync.Pool entries at random, so the
// pin does not run under -race.
func TestWeakScalingAllocsDeterministic(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	for _, c := range []struct {
		name    string
		nodes   int
		fail    bool
		ceiling float64
	}{
		{"64", 64, false, 95},
		{"1024", 1024, false, 113},
		{"1024-fail", 1024, true, 1316},
	} {
		t.Run(c.name, func(t *testing.T) {
			var first float64
			for i := 0; i < 6; i++ {
				got := chainAllocs(t, c.nodes, c.fail)
				if i == 0 {
					first = got
				}
				if got != first {
					t.Fatalf("fresh context %d: %v allocs/run, context 0: %v", i, got, first)
				}
			}
			if first > c.ceiling {
				t.Fatalf("%v allocs/run, ceiling %v", first, c.ceiling)
			}
		})
	}
}

// chainAllocs builds a fresh Context the caller owns, warms it with one
// chain and returns the allocations of a later one. (The second chain on a
// Context still fills free lists; AllocsPerRun's own warm-up runs it.)
func chainAllocs(t *testing.T, nodes int, fail bool) float64 {
	t.Helper()
	ccfg, cfg := WeakScalingSetup(Paper(), nodes)
	if fail {
		cfg.Split = true
		cfg.Failures = []mapreduce.Injection{{AtRun: 2, After: 1, Node: 3}}
	}
	ctx := mapreduce.NewContext(ccfg)
	if _, err := ctx.RunChain(cfg); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		if _, e := ctx.RunChain(cfg); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
