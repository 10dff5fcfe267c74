package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rcmp/internal/des"
	"rcmp/internal/middleware"
)

// scanPick is the locality pass as a plain scan of the pending queue: the
// first queued task with a live input replica on a live node that has a
// free mapper slot, launched on the first such replica.
func scanPick(r *jobRun) (*mapTask, int) {
	for _, mt := range r.pendingMaps {
		if mt == nil {
			continue
		}
		for _, n := range r.fs().FileBlockReplicas(mt.in, mt.part, mt.block, nil) {
			if r.slots.mapFree[n] > 0 && !r.clus().Node(n).Failed() {
				return mt, n
			}
		}
	}
	return nil, -1
}

// pickChecker compares every locality-pass decision of the runs on one
// context with scanPick, and holds every queued task's input replica list
// to what it was when the task was first seen queued.
type pickChecker struct {
	t         *testing.T
	label     string
	failed    bool
	decisions int
	launches  int
	// replicas records each queued incarnation's full replica list, dead
	// nodes included.
	replicas map[pickKey][]int
}

// pickKey names one queued incarnation: stamps are unique within a run.
type pickKey struct {
	d     *Driver
	run   int
	stamp int32
}

func (c *pickChecker) check(r *jobRun, mt *mapTask, node int) {
	if c.failed {
		return
	}
	c.decisions++
	if mt != nil {
		c.launches++
	}
	if want, wantNode := scanPick(r); mt != want || node != wantNode {
		c.failed = true
		c.t.Errorf("%s: decision %d: index picked task %p on node %d, queue scan %p on node %d",
			c.label, c.decisions, mt, node, want, wantNode)
		return
	}
	for _, q := range r.pendingMaps {
		if q == nil {
			continue
		}
		reps := q.in.Partitions[q.part].Blocks[q.block].Replicas
		k := pickKey{r.d, r.runIndex, q.qstamp}
		old, seen := c.replicas[k]
		if !seen {
			c.replicas[k] = append([]int(nil), reps...)
			continue
		}
		if !slices.Equal(old, reps) {
			c.failed = true
			c.t.Errorf("%s: queued task %d's input replicas changed from %v to %v",
				c.label, q.index, old, reps)
			return
		}
	}
}

// TestLocalPickMatchesQueueScan runs seeded random small clusters — 4 to
// 40 nodes, input replication 1 to 3, 1 to 3 map slots, failures landing
// before and after their detection, speculation over a straggler disk,
// RCMP and Hadoop recovery, 1 to 3 tenants — and checks every data-local
// decision against the queue scan it replaces, and that no RCMP session
// drains.
func TestLocalPickMatchesQueueScan(t *testing.T) {
	var decisions, launches int
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(37)
		ccfg := tinyCluster(nodes, 1+rng.Intn(3), 1+rng.Intn(2))
		ccfg.FailureDetectionTimeout = des.Time(1 + rng.Intn(12))
		cfg := tinyChain(2+rng.Intn(2), 1+rng.Intn(nodes), int64(64*(1+rng.Intn(4))))
		cfg.Seed = seed
		cfg.InputRepl = 1 + rng.Intn(3)
		if rng.Intn(2) == 0 {
			cfg.Mode, cfg.OutputRepl = ModeHadoop, 1+rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			cfg.Speculation = true
			ccfg.NodeDiskScale = map[int]float64{rng.Intn(nodes): 0.2}
		}
		for k := rng.Intn(3); k > 0; k-- {
			cfg.Failures = append(cfg.Failures, Injection{
				AtRun: 1 + rng.Intn(2), After: des.Time(rng.Float64() * 12), Node: -1, Count: 1 + rng.Intn(2),
			})
		}
		tenants := 1 + rng.Intn(3)
		graph := GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)}

		c := &pickChecker{t: t, label: fmt.Sprintf("seed %d", seed), replicas: map[pickKey][]int{}}
		ctx := NewContext(ccfg)
		ctx.checkPick = c.check
		// A session may end in an error: lost data is named, and a Hadoop
		// session of several tenants may drain (ROADMAP item 17(c)). An RCMP
		// drain is a fault. Every decision the session made was checked.
		_, err := ctx.RunMultiTenant(graph, tenants)
		if err != nil && cfg.Mode == ModeRCMP && strings.Contains(err.Error(), "drained") {
			t.Errorf("seed %d: %v", seed, err)
		}
		decisions += c.decisions
		launches += c.launches
	}
	if launches < 10000 || decisions <= launches {
		t.Fatalf("too little coverage: %d decisions, %d data-local launches", decisions, launches)
	}
}
