package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"testing"

	"rcmp/internal/mapreduce"
)

// TestWeakScalingAllocsDeterministic pins what a weak-scaling chain
// allocates on a warm Context the caller owns: the same count on every
// fresh Context, and no more than a committed ceiling (about 10 % above
// the 78, 95 and 1183 allocations per run measured on go1.24), so an
// allocation regression on the simulator's hot path fails here
// deterministically. The count depends on the order dfs.Reset refills its
// free lists, which is why that order is by file name.
//
// Only allocations made under (*mapreduce.Context).RunChain count, read
// from the allocation profile at MemProfileRate 1 (see chainAllocs). A
// process-wide count (testing.AllocsPerRun) also sees the runtime's own
// allocations, such as the scavenger growing a timer heap or sysmon
// starting a thread; those only ever add, and made the pin fail about once
// in 20 to 30 runs.
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
		ceiling int64
	}{
		{"64", 64, false, 86},
		{"1024", 1024, false, 105},
		{"1024-fail", 1024, true, 1301},
	} {
		t.Run(c.name, func(t *testing.T) {
			var first int64
			for i := 0; i < 6; i++ {
				got := chainAllocs(t, c.nodes, c.fail)
				if i == 0 {
					first = got
				}
				if got != first {
					t.Fatalf("fresh context %d: %d allocs/run, context 0: %d", i, got, first)
				}
			}
			if first > c.ceiling {
				t.Fatalf("%d allocs/run, ceiling %d", first, c.ceiling)
			}
		})
	}
}

// chainAllocs builds a fresh Context the caller owns, warms it with two
// chains (the second chain on a Context still fills free lists) and
// returns the objects a third allocates under RunChain. The allocation
// profile has each of them but one kind: an object the tiny allocator
// packs into a block it already holds is never recorded, only the block
// (runtime/metrics' /gc/heap/tiny/allocs:objects). Those are counted
// process-wide over the call; the runtime's own allocations, the noise,
// are never such objects.
func chainAllocs(t *testing.T, nodes int, fail bool) int64 {
	t.Helper()
	ccfg, cfg := WeakScalingSetup(Paper(), nodes)
	if fail {
		cfg.Split = true
		cfg.Failures = []mapreduce.Injection{{AtRun: 2, After: 1, Node: 3}}
	}
	ctx := mapreduce.NewContext(ccfg)
	for range 2 {
		if _, err := ctx.RunChain(cfg); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A collection publishes the allocation profile up to its mark phase.
	// It also empties fmt's printer cache, a sync.Pool, which refillPrinters
	// refills outside the chain.
	runtime.GC()
	_ = fmt.Sprint(refillPrinters{})
	before, tiny := allocsUnderRunChain(t), packedTinyAllocs()
	if _, err := ctx.RunChain(cfg); err != nil {
		t.Fatal(err)
	}
	tiny = packedTinyAllocs() - tiny
	runtime.GC()
	return allocsUnderRunChain(t) - before + int64(tiny)
}

// refillPrinters prints itself with a second printer while the first is
// in use, so two go back to fmt's pool: one to the current P's private
// slot, the other to its shared queue, where the chain finds it even if
// the scheduler has moved its goroutine to another P since.
type refillPrinters struct{}

func (refillPrinters) String() string { return fmt.Sprint(0) }

// packedTinyAllocs returns how many objects the process has packed into
// tiny blocks. ReadMemStats first moves every P's count into the total.
func packedTinyAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocsUnderRunChain sums the objects the allocation profile holds on
// stacks that pass through (*mapreduce.Context).RunChain. A record keeps
// the innermost 32 frames only, so a stack that fills them is counted as
// well: only the simulator's allocations are made that deep, the
// runtime's a few frames down.
func allocsUnderRunChain(t *testing.T) int64 {
	t.Helper()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	inChain := map[uintptr]bool{}
	var total int64
	for _, r := range recs[:n] {
		stk := r.Stack()
		deep := len(stk) == len(r.Stack0)
		if deep || slices.ContainsFunc(stk, func(pc uintptr) bool {
			in, seen := inChain[pc]
			if !seen {
				in = runtime.FuncForPC(pc-1).Name() == "rcmp/internal/mapreduce.(*Context).RunChain"
				inChain[pc] = in
			}
			return in
		}) {
			total += r.AllocObjects
		}
	}
	return total
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
