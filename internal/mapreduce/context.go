// context.go holds the reusable simulation context: the simulator,
// cluster topology, DFS and object free lists that Context.RunChain reuses
// across executions with the same cluster configuration. Building a
// topology (3N+1 flow resources, node structs, a network) and throwing it
// away per chain dominated the sweep-level allocation profile; a caller
// that runs chains one after another keeps its Context and reuses the
// template instead (experiments.Worker is that caller for every sweep).
//
// Reuse never trades determinism: Reset restores every piece of
// behavior-relevant state (virtual clock, event sequence numbers, node
// liveness, resource bookkeeping, DFS namespace, placement cursors), so a
// run on a reused context is byte-identical to one on a fresh context —
// the golden-digest suite runs on reused contexts and pins this.
package mapreduce

import (
	"rcmp/internal/cluster"
	"rcmp/internal/des"
	"rcmp/internal/dfs"
	"rcmp/internal/flow"
	"rcmp/internal/lineage"
)

// Context is a reusable simulation substrate for one cluster
// configuration: simulator + cluster + DFS, plus free lists for runs,
// tasks and shuffle trunks. A Context is single-threaded (like the
// simulator it wraps): whoever holds it runs one computation at a time on
// it, and concurrent callers each hold their own.
type Context struct {
	sim  *des.Simulator
	clus *cluster.Cluster
	fs   *dfs.FS

	// shufTrunks coalesces exact-tier shuffle fetches per (source,
	// destination) node pair, indexed [dst][src]. The outer slice is one
	// pointer per destination; a destination's row is allocated on its
	// first fetch, so memory is O(active destinations × nodes) instead of
	// the old eager O(nodes²) array — the layout a thousand-node cluster
	// cannot afford. Trunks bind only to cluster resources, so they
	// persist across runs and chains; a dormant trunk restarts exactly
	// like a fresh one. (The aggregated shuffle tier needs no trunk state
	// here at all: its fetches share one resource path and coalesce in the
	// flow network's rate-class index.)
	shufTrunks [][]*flow.Trunk

	// diskTrunks are persistent per-node trunks for the single-disk unit
	// path ([disk, weight 1]) that local map reads, map-output writes and
	// local reducer-output writes all share; aggTrunk is the one trunk of
	// the aggregated shuffle tier (every aggregated fetch shares one
	// pooled resource path). Both exist so the hottest flow starts skip
	// the rate-class index's map lookup: a persistent trunk with the same
	// uses is the same arbitration unit the index would have built.
	diskTrunks []*flow.Trunk
	aggTrunk   *flow.Trunk

	freeRuns []*jobRun
	freeMaps []*mapTask
	freeReds []*reduceTask

	// session is the running graph's tenants and their shared slot table.
	session session

	// checkPick, when set, sees every locality-pass decision before it
	// takes effect; the package's tests check it against a queue scan.
	checkPick func(r *jobRun, mt *mapTask, node int)

	// Lineage records die with their chain (a Result never exposes the
	// chain), so the context recycles them: chainRecs tracks the records
	// the running chain allocated, harvested into freeRecs at the next
	// reset. Each record keeps its Mappers/Reducers slice capacities plus
	// the nodes backing array runDone packs reducer locations into.
	chainRecs     []*lineage.JobRecord
	freeRecs      []*lineage.JobRecord
	chainNodeBufs [][]int
	freeNodeBufs  [][]int
	// stepRec and stepNodes carry a finished recomputation step's tasks to
	// the cursor, which copies them into the chain's records.
	stepRec   lineage.JobRecord
	stepNodes []int
}

// allocJobRec pops a recycled lineage record (empty, with capacities) or
// makes a fresh one, tracking it for harvest at the next reset.
func (ctx *Context) allocJobRec() *lineage.JobRecord {
	var rec *lineage.JobRecord
	if k := len(ctx.freeRecs); k > 0 {
		rec = ctx.freeRecs[k-1]
		ctx.freeRecs[k-1] = nil
		ctx.freeRecs = ctx.freeRecs[:k-1]
	} else {
		rec = &lineage.JobRecord{}
	}
	ctx.chainRecs = append(ctx.chainRecs, rec)
	return rec
}

// allocNodeBuf hands out a length-n int buffer from the pool, tracking it
// for harvest at the next reset (the chain's records slice into it).
func (ctx *Context) allocNodeBuf(n int) []int {
	var buf []int
	if k := len(ctx.freeNodeBufs); k > 0 && cap(ctx.freeNodeBufs[k-1]) >= n {
		buf = ctx.freeNodeBufs[k-1][:n]
		ctx.freeNodeBufs[k-1] = nil
		ctx.freeNodeBufs = ctx.freeNodeBufs[:k-1]
	} else {
		buf = make([]int, n)
	}
	ctx.chainNodeBufs = append(ctx.chainNodeBufs, buf)
	return buf
}

// harvestLineage reclaims the previous chain's records and node buffers.
// Called from reset, when the previous chain (and every pointer into its
// records) is unreachable.
func (ctx *Context) harvestLineage() {
	for i, rec := range ctx.chainRecs {
		mappers := rec.Mappers[:0]
		reducers := rec.Reducers[:0]
		*rec = lineage.JobRecord{}
		rec.Mappers = mappers
		rec.Reducers = reducers
		ctx.freeRecs = append(ctx.freeRecs, rec)
		ctx.chainRecs[i] = nil
	}
	ctx.chainRecs = ctx.chainRecs[:0]
	for i, buf := range ctx.chainNodeBufs {
		ctx.freeNodeBufs = append(ctx.freeNodeBufs, buf)
		ctx.chainNodeBufs[i] = nil
	}
	ctx.chainNodeBufs = ctx.chainNodeBufs[:0]
}

// NewContext builds a fresh context for the cluster configuration. It
// panics on an invalid config, like cluster.New.
func NewContext(ccfg cluster.Config) *Context {
	sim := des.New()
	return &Context{
		sim:  sim,
		clus: cluster.New(sim, ccfg),
		fs:   dfs.New(256 * cluster.MB),
	}
}

// reset restores the context to a just-built state for a chain with the
// given DFS block size.
func (ctx *Context) reset(blockSize int64) {
	ctx.sim.Reset()
	ctx.clus.Reset()
	ctx.fs.Reset(blockSize)
	ctx.harvestLineage()
	// Shuffle trunks survive reset dormant. A trunk still holding members
	// (a chain that ended in an error mid-flight) must not be reused; owners
	// drop such contexts rather than run on them again, so by the time reset
	// runs every trunk is dormant — verify cheaply all the same.
	for _, row := range ctx.shufTrunks {
		for i, t := range row {
			if t != nil && t.Members() != 0 {
				row[i] = nil
			}
		}
	}
	for i, t := range ctx.diskTrunks {
		if t != nil && t.Members() != 0 {
			ctx.diskTrunks[i] = nil
		}
	}
	if ctx.aggTrunk != nil && ctx.aggTrunk.Members() != 0 {
		ctx.aggTrunk = nil
	}
}

// diskTrunk returns node's persistent single-disk trunk, creating it on
// first use.
func (ctx *Context) diskTrunk(node int) *flow.Trunk {
	if ctx.diskTrunks == nil {
		ctx.diskTrunks = make([]*flow.Trunk, ctx.clus.NumNodes())
	}
	t := ctx.diskTrunks[node]
	if t == nil {
		t = ctx.clus.Net.NewTrunk("disk", []flow.Use{{R: ctx.clus.Node(node).Disk, Weight: 1}})
		ctx.diskTrunks[node] = t
	}
	return t
}

// aggShuffleTrunk returns the aggregated shuffle tier's single trunk,
// creating it on first use (with a retained copy of the pooled path).
func (ctx *Context) aggShuffleTrunk() *flow.Trunk {
	if ctx.aggTrunk == nil {
		ctx.aggTrunk = ctx.clus.Net.NewTrunk("shuffle-agg",
			append([]flow.Use(nil), ctx.clus.AggShuffleUses()...))
	}
	return ctx.aggTrunk
}

// shuffleTrunk returns the persistent coalescing trunk for exact-tier
// fetches from src to dst, creating it (and the destination's row) on
// first use.
func (ctx *Context) shuffleTrunk(c *cluster.Cluster, src, dst int) *flow.Trunk {
	if ctx.shufTrunks == nil {
		ctx.shufTrunks = make([][]*flow.Trunk, c.NumNodes())
	}
	row := ctx.shufTrunks[dst]
	if row == nil {
		row = make([]*flow.Trunk, c.NumNodes())
		ctx.shufTrunks[dst] = row
	}
	t := row[src]
	if t == nil {
		t = c.Net.NewTrunk("shuffle", c.ShuffleUses(src, dst))
		row[src] = t
	}
	return t
}

// allocMap pops a recycled map task (zeroed) or makes a fresh one.
func (ctx *Context) allocMap() *mapTask {
	if k := len(ctx.freeMaps); k > 0 {
		mt := ctx.freeMaps[k-1]
		ctx.freeMaps[k-1] = nil
		ctx.freeMaps = ctx.freeMaps[:k-1]
		return mt
	}
	return &mapTask{}
}

func (ctx *Context) recycleMap(mt *mapTask) {
	*mt = mapTask{}
	ctx.freeMaps = append(ctx.freeMaps, mt)
}

// allocRed pops a recycled reduce task or makes a fresh one. The recycled
// task keeps its slice capacities (exact-tier buckets and ready bits,
// output bookkeeping) — launchReduce re-zeros what a launch needs.
func (ctx *Context) allocRed() *reduceTask {
	if k := len(ctx.freeReds); k > 0 {
		rt := ctx.freeReds[k-1]
		ctx.freeReds[k-1] = nil
		ctx.freeReds = ctx.freeReds[:k-1]
		return rt
	}
	return &reduceTask{}
}

func (ctx *Context) recycleRed(rt *reduceTask) {
	buckets := rt.buckets[:0]
	ready := [2][]uint64{rt.ready[0][:0], rt.ready[1][:0]}
	outFlows := rt.outFlows[:0]
	owed := rt.owedRewrites[:0]
	outRep := rt.outReplicas[:0]
	*rt = reduceTask{}
	rt.buckets = buckets
	rt.ready = ready
	rt.outFlows = outFlows
	rt.owedRewrites = owed
	rt.outReplicas = outRep
	ctx.freeReds = append(ctx.freeReds, rt)
}

// allocRun pops a recycled jobRun or makes a fresh one. Recycled runs
// keep their slice capacities; newRun and begin re-zero what a run needs.
func (ctx *Context) allocRun() *jobRun {
	if k := len(ctx.freeRuns); k > 0 {
		r := ctx.freeRuns[k-1]
		ctx.freeRuns[k-1] = nil
		ctx.freeRuns = ctx.freeRuns[:k-1]
		return r
	}
	return &jobRun{}
}

// recycleRun returns a finished (done or cancelled) run and all its tasks
// to the pools. The caller guarantees no simulator event or flow still
// references the run's tasks — true for any completed run, because
// completion and cancellation both cancel or drain every outstanding
// event and flow.
func (ctx *Context) recycleRun(r *jobRun) {
	for _, mt := range r.maps {
		ctx.recycleMap(mt)
	}
	for _, dup := range r.specDups {
		ctx.recycleMap(dup)
	}
	for _, rt := range r.reduces {
		if r.d.agg {
			// A window into this run's aggBuckets, not the task's own
			// storage: an exact-tier chain on this context must not reuse it.
			rt.buckets = nil
		}
		ctx.recycleRed(rt)
	}
	maps := r.maps[:0]
	reduces := r.reduces[:0]
	aggOut := r.aggOut[:0]
	aggBuckets := r.aggBuckets[:0]
	cohorts := r.cohorts[:0]
	looseBuckets := r.looseBuckets[:0]
	aggKicks := r.aggKicks[:0]
	pendingMaps := r.pendingMaps[:0]
	pendingReds := r.pendingReds[:0]
	commits := r.commits[:0]
	specDups := r.specDups[:0]
	locBuf := r.locBuf[:0]
	byStamp := r.byStamp[:0]
	locEnt := r.locEnt[:0]
	locHead, locTail := r.locHead[:0], r.locTail[:0]
	locHeap := r.locHeap[:0]
	*r = jobRun{}
	r.maps = maps
	r.reduces = reduces
	r.aggOut = aggOut
	r.aggBuckets = aggBuckets
	r.cohorts = cohorts
	r.looseBuckets = looseBuckets
	r.aggKicks = aggKicks
	r.pendingMaps = pendingMaps
	r.pendingReds = pendingReds
	r.commits = commits
	r.specDups = specDups
	r.locBuf = locBuf
	r.byStamp = byStamp
	r.locEnt = locEnt
	r.locHead, r.locTail = locHead, locTail
	r.locHeap = locHeap
	ctx.freeRuns = append(ctx.freeRuns, r)
}
