// run.go holds the shared skeleton of one job run: the task structs, the
// jobRun state, slot bookkeeping and the pump that assigns pending tasks.
// The phase logic lives in dedicated modules — map_phase.go (assignment,
// read/compute/write, speculation), shuffle_phase.go (buckets and fetch
// batching), output_phase.go (replica writes and partition commit) and
// recovery.go (failure reactions) — all driving the task lifecycle machine
// defined in lifecycle.go.
//
// The event hot path is allocation-free: tasks implement des.Timer and
// flow.Completion themselves, dispatching on a small step tag, so
// scheduling a phase transition allocates neither a closure nor an event
// (the kernel recycles those); per-node state lives in slices indexed by
// node ID rather than maps; and tasks and runs are recycled through the
// owning Context's free lists between runs. Everything indexed by node or
// reducer ID iterates in ascending order, which is exactly the order the
// old sortedKeys map sweeps produced — the determinism contract (golden
// digests) is preserved by construction.
package mapreduce

import (
	"math/rand"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/dfs"
	"rcmp/internal/flow"
	"rcmp/internal/metrics"
)

// Task step tags: where a task is in its phase pipeline, consulted by the
// Fire/FlowDone dispatchers. Tasks move through a strictly linear
// pipeline, so one tag per task is enough.
const (
	mtStepStartup uint8 = iota // timer: startup done -> mapRead
	mtStepRead                 // flow: input read arrived -> mapCompute
	mtStepCPU                  // timer: UDF finished -> mapWrite
	mtStepWrite                // flow: output written -> mapDone
)

const (
	rtStepStartup uint8 = iota // timer: startup done -> reduceShuffle
	rtStepCPU                  // timer: merge/UDF finished -> reduceWrite
)

// mapTask is one mapper execution within a run.
type mapTask struct {
	taskLife
	run  *jobRun
	step uint8
	// in is the resolved input-file handle and inIdx its index into the
	// job's input list (0 for single-input jobs) — a DAG fan-in job's
	// mappers read different files.
	in         *dfs.File
	inIdx      int
	index      int
	part       int // partition of the task's input file
	block      int // block within the partition
	inputBytes int64
	outBytes   int64

	node int
	fl   *flow.Flow
	ev   *des.Event
	// qpos is the task's index in jobRun.pendingMaps while it is queued
	// (state pending). qstamp is the stamp of its latest enqueue, which
	// names its entries in the locality index; -1 once it leaves the queue.
	qpos   int
	qstamp int32
	// lostSeq is nonzero on a task re-executed after its output was lost
	// (Hadoop recovery): the run's sequence stamp (jobRun.seq) of the
	// detection that declared it lost — the latest one, if it was lost again.
	lostSeq int
	start   des.Time

	// Speculative execution: a straggling original holds a pointer to its
	// duplicate and vice versa. Only one of the pair ever completes.
	dupOf *mapTask // set on the duplicate, pointing at the original
	dup   *mapTask // set on the original while a duplicate is in flight
}

// Fire implements des.Timer: the task's pending timer elapsed.
func (mt *mapTask) Fire() {
	if mt.step == mtStepStartup {
		mt.run.mapRead(mt)
	} else {
		mt.run.mapWrite(mt)
	}
}

// FlowDone implements flow.Completion: the task's in-flight transfer
// finished.
func (mt *mapTask) FlowDone(*flow.Flow) {
	if mt.step == mtStepRead {
		mt.run.mapCompute(mt)
	} else {
		mt.run.mapDone(mt)
	}
}

// primary returns the canonical task of a (task, duplicate) pair.
func (mt *mapTask) primary() *mapTask {
	if mt.dupOf != nil {
		return mt.dupOf
	}
	return mt
}

// srcBucket tracks shuffle bytes a reduce task owes to / has pulled from
// one source node. Buckets live in a per-task slice indexed by source
// node; rt is the back-reference the fetch-completion dispatch needs (see
// FlowDone in shuffle_phase.go). On the aggregated tier a reducer's single
// bucket is element idx of the run-level jobRun.aggBuckets array and
// carries what the dense offers group buckets by: frac, live and its
// offer cohort.
type srcBucket struct {
	rt       *reduceTask
	pending  float64
	inflight float64
	fl       *flow.Flow
	frac     float64 // aggregated tier: the reducer's shareFrac
	idx      int32   // source node (exact tier) or aggBuckets index (aggregated)
	// cohort is 1 + its jobRun.cohorts index while a member (pending is
	// then the cohort's), 0 while loose; slot is its member-list position.
	cohort  int32
	slot    int32
	stalled bool // source node down, no new fetches
	live    bool // aggregated tier: the reducer is shuffling
}

// offerCohort is a set of live aggregated-tier buckets whose frac and
// pending are bit-identical, so one add per dense offer serves them all.
// members holds aggBuckets indices, the idle ones (no fetch in flight) in
// [0] and the busy ones in [1].
type offerCohort struct {
	frac, pending float64
	members       [2][]int32
}

// reduceTask is one reducer (or one split of a split reducer) execution.
type reduceTask struct {
	taskLife
	run     *jobRun
	step    uint8
	reducer int
	split   int
	splits  int

	node int
	// buckets is indexed by source node and fixed length while running; on
	// the aggregated tier it is a one-element window into jobRun.aggBuckets.
	buckets []srcBucket
	// ready is the exact tier's index of the buckets kickFetch may start,
	// one bit per source node (see markReady in shuffle_phase.go).
	ready [2][]uint64
	// shufSeq is the run's sequence stamp (jobRun.seq) of this incarnation's
	// shuffle start, compared against mapTask.lostSeq by offerMapOutput.
	shufSeq int
	// needResupply is bytes lost with dead source nodes that re-executed
	// mappers must re-provide (Hadoop within-job recovery).
	needResupply float64
	// aggAccounted is the run's aggOfferBytes watermark this reducer has
	// already taken its share of (aggregated tier only).
	aggAccounted float64
	inflight     int
	fetched      float64
	shuffling    bool
	ev           *des.Event
	// outFlows tracks in-progress output writes and their target nodes in
	// start order — a slice, not a map, so abort/retarget sweeps touch the
	// flow network in a deterministic order.
	outFlows     []outFlow
	owedRewrites []int // dead replica targets awaiting replacement
	outPending   int
	outReplicas  []int
	outBytes     int64
	start        des.Time
}

// Fire implements des.Timer: the task's pending timer elapsed.
func (rt *reduceTask) Fire() {
	if rt.step == rtStepStartup {
		rt.run.reduceShuffle(rt)
	} else {
		rt.run.reduceWrite(rt)
	}
}

// FlowDone implements flow.Completion for output-write flows; shuffle
// fetches complete through their srcBucket instead.
func (rt *reduceTask) FlowDone(f *flow.Flow) { rt.run.outWriteDone(rt, f) }

func (rt *reduceTask) shareFrac(numReducers int) float64 {
	return 1 / (float64(numReducers) * float64(rt.splits))
}

// slotTable is the cluster-wide free-slot bookkeeping the scheduler pump
// assigns against: per-node free counts plus their totals, maintained
// through the jobRun take/free helpers so the two can never drift apart.
// The session owns one table, reset once per session, that its tenants'
// runs contend on.
type slotTable struct {
	mapFree []int // free mapper slots, indexed by node ID
	redFree []int // free reducer slots, indexed by node ID
	// mapSlotsFree/redSlotsFree are the cluster-wide totals of the two
	// slices, so the pump (which runs after every event) can reject an
	// assignment pass in O(1) instead of scanning every node when the
	// cluster is saturated.
	mapSlotsFree int
	redSlotsFree int
	// mapFreeNodes lists the nodes with a free mapper slot, in no
	// particular order; the locality pass builds its heap from it.
	// mapFreeAt[n] is n's position there plus one, 0 while n is absent.
	mapFreeNodes []int32
	mapFreeAt    []int32
}

// reset restores every alive node's full slot allotment.
func (s *slotTable) reset(c *cluster.Cluster, mapSlots, redSlots int) {
	n := c.NumNodes()
	s.mapFree = grow(s.mapFree, n)
	s.redFree = grow(s.redFree, n)
	s.mapFreeAt = grow(s.mapFreeAt, n)
	s.mapFreeNodes = s.mapFreeNodes[:0]
	for _, node := range c.Alive() {
		s.mapFree[node] = mapSlots
		s.redFree[node] = redSlots
		s.listFree(node)
	}
	s.mapSlotsFree = c.NumAlive() * mapSlots
	s.redSlotsFree = c.NumAlive() * redSlots
}

// nodeDown zeroes a dead node's slots. Idempotent: a second call (another
// tenant's run reacting to the same failure) subtracts zero.
func (s *slotTable) nodeDown(n int) {
	s.mapSlotsFree -= s.mapFree[n]
	s.redSlotsFree -= s.redFree[n]
	s.mapFree[n] = 0
	s.redFree[n] = 0
	s.listFree(n)
}

func (s *slotTable) takeMap(n int) {
	s.mapFree[n]--
	s.mapSlotsFree--
	s.listFree(n)
}

func (s *slotTable) freeMap(n int) {
	s.mapFree[n]++
	s.mapSlotsFree++
	s.listFree(n)
}

// listFree brings n's membership of mapFreeNodes in line with its free
// mapper slots.
func (s *slotTable) listFree(n int) {
	at := s.mapFreeAt[n]
	switch {
	case s.mapFree[n] > 0 && at == 0:
		s.mapFreeNodes = append(s.mapFreeNodes, int32(n))
		s.mapFreeAt[n] = int32(len(s.mapFreeNodes))
	case s.mapFree[n] <= 0 && at != 0:
		last := s.mapFreeNodes[len(s.mapFreeNodes)-1]
		s.mapFreeNodes[at-1] = last
		s.mapFreeAt[last] = at
		s.mapFreeNodes = s.mapFreeNodes[:len(s.mapFreeNodes)-1]
		s.mapFreeAt[n] = 0
	}
}

// jobRun executes one job run (initial, recompute step, or restart).
type jobRun struct {
	d        *Driver
	job      int // 1-based topological position in the graph
	kind     metrics.RunKind
	runIndex int
	start    des.Time

	// inputs lists the job's input files (shared with the driver's job
	// table; never mutated). Chains have exactly one.
	inputs     []string
	outputFile string
	repl       int
	scatter    bool // scatter reducer output blocks across alive nodes

	maps    []*mapTask
	reduces []*reduceTask
	// aggOut aggregates available map-output bytes per holder node
	// (indexed by node ID), including persisted outputs reused from the
	// initial run.
	aggOut []float64
	// seq orders shuffle starts against loss detections within the run: each
	// stamps the next value, from 1 (reduceTask.shufSeq, mapTask.lostSeq).
	seq int

	mapsRemaining int
	redRemaining  int
	// pendingMaps is the FIFO assignment queue. Launched (or killed)
	// entries become nil tombstones instead of being spliced out: a splice
	// memmoves the whole tail, which at thousands of nodes turned the map
	// phase quadratic (the profiled 4096-node tail was ~35% memmove).
	// Tombstones keep indices stable — each queued task knows its own
	// (mapTask.qpos) — and dropPendingMap compacts them away amortized
	// O(1) once they outnumber live entries. pendingMapNils counts them.
	pendingMaps    []*mapTask
	pendingMapNils int
	pendingReds    []*reduceTask
	slots          *slotTable // the session's shared table
	redCursor      int        // round-robin start for reducer placement

	// The locality index (localPick in map_phase.go). Every enqueue stamps
	// its task with its position in byStamp, so stamp order is queue
	// order. Node n's queue is a list through locEnt, from locHead[n] to
	// locTail[n], of the stamps of queued tasks with a live input replica
	// on n, in stamp order; an entry whose task has left the queue or been
	// re-stamped is dead and skipped when it reaches the head. locHeap is
	// the pump's heap of free nodes keyed by their first live stamp, built
	// once per pump (locHeapBuilt).
	byStamp          []*mapTask
	locEnt           []locEntry
	locHead, locTail []int32
	locHeap          []locKey
	locHeapBuilt     bool

	commits []partCommit // indexed by reducer ID, opened when the first split lands
	done    bool

	// Aggregated-tier offer accounting (see offerAggOutput in
	// shuffle_phase.go): aggOfferBytes is the cumulative map-output volume
	// reducers are entitled to shares of, aggSweepNext the next volume at
	// which every shuffling reducer is synced and kicked, and aggSlow the
	// failure fallback that reverts to exact per-reducer offers.
	aggOfferBytes float64
	aggSweepNext  float64
	aggSlow       bool
	// aggBuckets holds every reducer's single aggregated-tier bucket, indexed
	// by position in reduces. Sized once in begin and never reallocated
	// while the run lives: in-flight fetches hold &aggBuckets[i] as their
	// Completion.
	aggBuckets []srcBucket
	// cohorts pools the dense offers' cohorts (offerAggDense), empty ones
	// included; looseBuckets queues buckets to regroup at the next dense
	// offer; aggKicks is that offer's kick list.
	cohorts      []offerCohort
	looseBuckets []int32
	aggKicks     []int32
	// aggLaunch memoises the aggregated tier's launch-time aggOut scan (see
	// aggLaunchShare); every aggOut write clears valid.
	aggLaunch struct {
		valid             bool
		alive             int
		frac              float64
		pending, resupply float64
	}

	// Speculation state: mean completed-mapper duration feeds the
	// straggler threshold; specDups tracks live duplicates for failure
	// handling and cancellation (they are not in maps).
	mapDoneCount int
	mapDoneSum   float64
	specDups     []*mapTask
	specEv       *des.Event
	// step is the plan step the run executes; nil for a full run.
	step *core.JobStep

	locBuf []int // scratch for inputLocations, reused across calls
}

// Fire implements des.Timer for the speculation wake-up event.
func (r *jobRun) Fire() {
	r.specEv = nil
	r.speculate()
	r.wake()
}

func (r *jobRun) sim() *des.Simulator    { return r.d.sim }
func (r *jobRun) clus() *cluster.Cluster { return r.d.clus }
func (r *jobRun) net() *flow.Network     { return r.d.clus.Net }
func (r *jobRun) fs() *dfs.FS            { return r.d.fs }
func (r *jobRun) cfg() *ChainConfig      { return &r.d.cfg }
func (r *jobRun) ccfg() *cluster.Config  { return &r.d.clus.Cfg }

// Slot bookkeeping goes through these four helpers so the per-node slices
// and the cluster-wide totals can never drift apart.

func (r *jobRun) takeMapSlot(n int) { r.slots.takeMap(n) }
func (r *jobRun) freeMapSlot(n int) { r.slots.freeMap(n) }
func (r *jobRun) takeRedSlot(n int) { r.slots.redFree[n]--; r.slots.redSlotsFree-- }
func (r *jobRun) freeRedSlot(n int) { r.slots.redFree[n]++; r.slots.redSlotsFree++ }

// dropPendingMap tombstones a queued task's entry (see the pendingMaps
// field comment), which also kills its locality-index entries, and
// compacts once tombstones outnumber live entries. Assignment order is
// untouched: survivors keep their relative order.
func (r *jobRun) dropPendingMap(mt *mapTask) {
	r.pendingMaps[mt.qpos] = nil
	mt.qstamp = -1
	r.pendingMapNils++
	if r.pendingMapNils*2 <= len(r.pendingMaps) || len(r.pendingMaps) < 64 {
		return
	}
	kept := 0
	for _, mt := range r.pendingMaps {
		if mt != nil {
			mt.qpos = kept
			r.pendingMaps[kept] = mt
			kept++
		}
	}
	clear(r.pendingMaps[kept:])
	r.pendingMaps = r.pendingMaps[:kept]
	r.pendingMapNils = 0
}

// grow returns s resized to n entries, all zeroed, reusing capacity —
// the shared shape of every per-node/per-reducer state slice reset.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// begin initializes the run's state and starts scheduling.
func (r *jobRun) begin() {
	r.start = r.sim().Now()
	// Commits are reset in place, not zeroed: each entry keeps its
	// replicas slice capacity so steady-state commits allocate nothing.
	if cap(r.commits) < r.cfg().NumReducers {
		r.commits = make([]partCommit, r.cfg().NumReducers)
	} else {
		r.commits = r.commits[:r.cfg().NumReducers]
		for i := range r.commits {
			r.commits[i].used = false
		}
	}
	r.mapsRemaining = len(r.maps)
	r.redRemaining = len(r.reduces)
	r.pendingMapNils = 0
	r.resetLocIndex()
	for _, mt := range r.maps {
		r.enqueueMap(mt)
	}
	if r.cfg().DisableLocality {
		// Without the locality preference, index-order assignment would
		// send every early task to the same input partition and hammer one
		// disk; schedulers that ignore locality still spread by placement
		// randomness, modeled with a deterministic shuffle.
		rng := rand.New(rand.NewSource(r.cfg().Seed + int64(r.runIndex)))
		rng.Shuffle(len(r.pendingMaps), func(i, j int) {
			q := r.pendingMaps
			q[i], q[j] = q[j], q[i]
			q[i].qpos, q[j].qpos = i, j
		})
	}
	r.pendingReds = append(r.pendingReds, r.reduces...)
	if r.d.agg {
		// The run starts entitled to every already-present output byte
		// (persisted map outputs a step registered in start).
		r.aggOfferBytes = 0
		for _, b := range r.aggOut {
			r.aggOfferBytes += b
		}
		r.aggSweepNext = r.aggOfferBytes + r.aggSweepStep()
		r.aggSlow = false
		r.aggBuckets = grow(r.aggBuckets, len(r.reduces))
		for i, rt := range r.reduces {
			r.aggBuckets[i].frac = rt.shareFrac(r.cfg().NumReducers)
			r.aggBuckets[i].idx = int32(i)
			rt.buckets = r.aggBuckets[i : i+1 : i+1]
		}
	}
	r.pump()
}

// wake is the event-context re-pump: freed slots (or new outputs) may
// unblock assignments, for any tenant's run, so all of them pump.
func (r *jobRun) wake() { r.d.ctx.session.pumpAll() }

// pump assigns pending tasks to free slots until no assignment is possible.
func (r *jobRun) pump() {
	if r.done {
		return
	}
	r.locHeapBuilt = false
	for r.assignOneMap() {
	}
	for r.assignOneReduce() {
	}
	r.checkDone()
}

func (r *jobRun) checkDone() {
	if r.done || r.mapsRemaining > 0 || r.redRemaining > 0 {
		return
	}
	r.done = true
	if r.specEv != nil {
		r.sim().Cancel(r.specEv)
		r.specEv = nil
	}
	r.d.rec.AddRun(metrics.RunStat{
		RunIndex: r.runIndex, Job: r.job, Kind: r.kind, Start: r.start, End: r.sim().Now(),
	})
	r.d.runDone(r)
}
