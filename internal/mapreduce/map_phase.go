package mapreduce

import (
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/flow"
	"rcmp/internal/metrics"
)

// map_phase.go drives map tasks through the shared lifecycle machine
// (lifecycle.go): locality-aware assignment, the read/compute/write
// pipeline, and speculative execution. Failure reactions that yank tasks
// out of this pipeline live in recovery.go. Phase transitions schedule
// through the task's own Timer/Completion dispatch (see run.go), so the
// per-task pipeline allocates nothing.

// assignOneMap launches at most one mapper, preferring data-local placement.
func (r *jobRun) assignOneMap() bool {
	if len(r.pendingMaps)-r.pendingMapNils == 0 || r.slots.mapSlotsFree <= 0 {
		return false
	}
	// Pass 1: a node with a free slot holding a pending task's input block.
	if !r.cfg().DisableLocality {
		mt, n := r.localPick()
		if r.d.ctx.checkPick != nil {
			r.d.ctx.checkPick(r, mt, n)
		}
		if mt != nil {
			r.launchMap(mt, n)
			return true
		}
	}
	// Pass 2: any free slot. A speculative duplicate avoids its original's
	// node — rerunning a straggler in place defeats the purpose. Nil
	// entries are launch tombstones (see dropPendingMap).
	for _, n := range r.clus().Alive() {
		if r.slots.mapFree[n] <= 0 {
			continue
		}
		for _, mt := range r.pendingMaps {
			if mt == nil {
				continue
			}
			if mt.dupOf != nil && mt.dupOf.state == taskRunning && mt.dupOf.node == n {
				continue
			}
			r.launchMap(mt, n)
			return true
		}
	}
	return false
}

// enqueueMap appends a task to the pending queue and, unless locality is
// off, stamps it and files the stamp under every live replica of its input
// block. That replica list cannot change while the task waits: a job's
// inputs were written by earlier runs and nothing rewrites them while it
// runs, and a failure only takes liveness away, which localPick re-checks
// on every node it considers. Nodes never come back within a chain, so a
// replica dead at enqueue needs no entry.
func (r *jobRun) enqueueMap(mt *mapTask) {
	mt.qpos = len(r.pendingMaps)
	r.pendingMaps = append(r.pendingMaps, mt)
	if r.cfg().DisableLocality {
		return
	}
	mt.qstamp = int32(len(r.byStamp))
	r.byStamp = append(r.byStamp, mt)
	for _, n := range r.inputLocations(mt) {
		i := int32(len(r.locEnt))
		r.locEnt = append(r.locEnt, locEntry{stamp: mt.qstamp})
		if t := r.locTail[n]; t != 0 {
			r.locEnt[t].next = i
		} else {
			r.locHead[n] = i
		}
		r.locTail[n] = i
	}
}

// resetLocIndex empties the locality index for a new run, keeping its
// capacity.
func (r *jobRun) resetLocIndex() {
	r.byStamp = r.byStamp[:0]
	r.locEnt = append(r.locEnt[:0], locEntry{}) // index 0 ends a list
	n := r.clus().NumNodes()
	r.locHead = grow(r.locHead, n)
	r.locTail = grow(r.locTail, n)
}

// locEntry is one node-queue entry of the locality index: a stamp and the
// index of the next entry in the same node's queue (0 at the end).
type locEntry struct{ stamp, next int32 }

// locKey is a locality-heap entry: a free node and the first live stamp
// of its queue as of its last check. Stamps only die during a pump, so a
// stored key never exceeds the node's true one and the heap may be
// repaired lazily, at the root.
type locKey struct{ stamp, node int32 }

// localPick is the data-local choice: the first queued task, in queue
// order, with an input replica on a node that has a free mapper slot and
// is alive, and the first such replica in FileBlockReplicas order; nil if
// there is none. Every eligible (task, node) pair has its stamp in the
// node's queue, so the heap root, once its key is confirmed live, holds
// that task's stamp. Nothing frees a slot or enqueues a task within one
// pump, so the heap built at the pump's first pick serves all its picks.
func (r *jobRun) localPick() (*mapTask, int) {
	if !r.locHeapBuilt {
		h := r.locHeap[:0]
		for _, n := range r.slots.mapFreeNodes {
			if s, ok := r.locFront(int(n)); ok && r.takesMap(int(n)) {
				h = append(h, locKey{s, n})
			}
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		r.locHeap = h
		r.locHeapBuilt = true
	}
	for len(r.locHeap) > 0 {
		top := &r.locHeap[0]
		n := int(top.node)
		s, ok := r.locFront(n)
		switch {
		case !ok || !r.takesMap(n):
			last := len(r.locHeap) - 1
			r.locHeap[0] = r.locHeap[last]
			r.locHeap = r.locHeap[:last]
			siftDown(r.locHeap, 0)
		case s != top.stamp:
			top.stamp = s
			siftDown(r.locHeap, 0)
		default:
			mt := r.byStamp[s]
			for _, m := range r.inputLocations(mt) {
				if r.slots.mapFree[m] > 0 && !r.clus().Node(m).Failed() {
					return mt, m
				}
			}
			panic("mapreduce: locality index lists a replica the task does not have")
		}
	}
	return nil, -1
}

// takesMap reports whether node n can launch a mapper now.
func (r *jobRun) takesMap(n int) bool {
	return r.slots.mapFree[n] > 0 && r.fs().NodeAlive(n) && !r.clus().Node(n).Failed()
}

// locFront returns the first live stamp in node n's queue, dropping the
// dead entries before it; false when none is left.
func (r *jobRun) locFront(n int) (int32, bool) {
	i := r.locHead[n]
	for i != 0 && r.byStamp[r.locEnt[i].stamp].qstamp != r.locEnt[i].stamp {
		i = r.locEnt[i].next
	}
	r.locHead[n] = i
	if i == 0 {
		r.locTail[n] = 0
		return 0, false
	}
	return r.locEnt[i].stamp, true
}

// siftDown restores the min-heap order below position i.
func siftDown(h []locKey, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].stamp < h[c].stamp {
			c++
		}
		if h[i].stamp <= h[c].stamp {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// inputLocations returns the live replicas of the task's input block. The
// result aliases a scratch buffer owned by the run: it is valid only until
// the next call, which is all the scheduler's scan-and-launch loops need,
// and keeps the per-event scheduling pass allocation-free.
func (r *jobRun) inputLocations(mt *mapTask) []int {
	r.locBuf = r.fs().FileBlockReplicas(mt.in, mt.part, mt.block, r.locBuf[:0])
	return r.locBuf
}

func (r *jobRun) launchMap(mt *mapTask, node int) {
	r.dropPendingMap(mt)
	r.takeMapSlot(node)
	mt.to(taskRunning)
	mt.node = node
	mt.start = r.sim().Now()
	mt.step = mtStepStartup
	mt.ev = r.sim().AfterTimer(r.ccfg().TaskStartup, mt)
}

func (r *jobRun) mapRead(mt *mapTask) {
	mt.ev = nil
	locs := r.inputLocations(mt)
	if len(locs) == 0 {
		// A failure just destroyed the input block. The task fails and its
		// slot frees; the master sorts the situation out at detection time
		// (RCMP cancels the run, Hadoop either finds a replica or aborts).
		mt.to(taskBlocked)
		r.freeMapSlot(mt.node)
		mt.node = -1
		return
	}
	// Prefer a local replica; otherwise read from the least-loaded holder
	// (HDFS clients balance across replicas the same way). This is what
	// lets a speculative duplicate escape a straggler: it pulls its input
	// from a healthy replica instead of the slow source.
	src := locs[0]
	bestLoad := int(^uint(0) >> 1)
	for _, n := range locs {
		if n == mt.node {
			src = n
			bestLoad = -1
			break
		}
		if a := r.clus().Node(n).Disk.Active(); a < bestLoad {
			bestLoad = a
			src = n
		}
	}
	mt.step = mtStepRead
	if src == mt.node {
		// Local read: the per-node disk trunk, skipping the class index.
		mt.fl = r.d.ctx.diskTrunk(src).StartC("map-read", float64(mt.inputBytes), 0, mt)
	} else {
		mt.fl = r.net().StartC("map-read", float64(mt.inputBytes),
			r.clus().ReadUsesScratch(src, mt.node), 0, mt)
	}
}

func (r *jobRun) mapCompute(mt *mapTask) {
	mt.fl = nil
	d := des.Time(0)
	if cpu := r.ccfg().MapCPU; cpu > 0 {
		d = des.Time(float64(mt.inputBytes) / cpu)
	}
	mt.step = mtStepCPU
	mt.ev = r.sim().AfterTimer(d, mt)
}

func (r *jobRun) mapWrite(mt *mapTask) {
	mt.ev = nil
	mt.step = mtStepWrite
	mt.fl = r.d.ctx.diskTrunk(mt.node).StartC("map-write", float64(mt.outBytes), 0, mt)
}

func (r *jobRun) mapDone(mt *mapTask) {
	mt.fl = nil
	mt.to(taskDone)
	r.freeMapSlot(mt.node)

	// Speculation: the losing copy of a pair is killed now; only the
	// winner's output counts.
	prim := mt.primary()
	if prim.state == taskDone && prim != mt && prim.node != mt.node {
		// The original already finished; this duplicate's completion would
		// have been aborted — defensive, should not happen.
		return
	}
	if loser := r.specLoser(mt); loser != nil {
		r.killSpeculative(loser)
	}
	prim.node = mt.node // canonical output location is the winner's
	if prim.state != taskDone {
		prim.to(taskDone)
	}

	r.mapsRemaining--
	r.mapDoneCount++
	r.mapDoneSum += float64(r.sim().Now() - mt.start)
	r.aggOut[mt.node] += float64(mt.outBytes)
	r.aggLaunch.valid = false
	if !r.cfg().NoTaskSamples {
		r.d.rec.AddTask(metrics.TaskSample{
			RunIndex: r.runIndex, Job: r.job, RunKind: r.kind, Kind: metrics.TaskMap,
			Index: mt.index, Node: mt.node, Start: mt.start, End: r.sim().Now(),
		})
	}
	// Feed every shuffling reducer (cost classes in shuffle_phase.go). The
	// offer is the primary's: a winning duplicate shares its bytes and, by
	// now, its node, but only the primary knows whether this is a
	// re-execution.
	switch {
	case r.d.agg && !r.aggSlow:
		r.offerAggOutput(prim)
	case r.d.agg && prim.lostSeq == 0:
		r.offerAggDense(prim)
	default:
		for _, rt := range r.reduces {
			if rt.state == taskRunning && rt.shuffling {
				r.offerMapOutput(rt, prim)
			}
		}
	}
	if r.cfg().Speculation {
		r.speculate()
	}
	r.wake()
}

// specLoser returns the other copy of a speculative pair if it is still in
// flight when `winner` completes.
func (r *jobRun) specLoser(winner *mapTask) *mapTask {
	var other *mapTask
	if winner.dupOf != nil {
		other = winner.dupOf
	} else {
		other = winner.dup
	}
	if other == nil || other.state == taskDone {
		return nil
	}
	return other
}

// killSpeculative aborts the losing copy: running work stops, a queued
// copy is dropped. A duplicate that loses provided no benefit (the paper's
// wasted speculation); an original that loses means the duplicate paid off.
func (r *jobRun) killSpeculative(loser *mapTask) {
	switch loser.state {
	case taskRunning:
		r.abortMapWork(loser)
		r.freeMapSlot(loser.node)
		if loser.dupOf != nil {
			r.d.specWasted++
		}
	case taskPending, taskBlocked:
		if loser.state == taskPending { // a blocked task is not queued
			r.dropPendingMap(loser)
		}
		if loser.dupOf != nil {
			r.d.specWasted++ // queued duplicate never even ran
		}
	}
	loser.to(taskDone) // resolved; never runs again
	loser.primary().dup = nil
}

// speculate queues duplicates for straggling mappers: running longer than
// core.SpeculationFactor times the mean completed duration, with no duplicate
// yet. Requires a handful of completions for a stable mean, like Hadoop.
// Tasks that will cross the threshold later get a wake-up, so stragglers
// are caught even when no more completions arrive.
func (r *jobRun) speculate() {
	if r.mapDoneCount < 5 || r.done {
		return
	}
	threshold := des.Time(core.SpeculationFactor * r.mapDoneSum / float64(r.mapDoneCount))
	now := r.sim().Now()
	nextCheck := des.Forever
	for _, mt := range r.maps {
		if mt.state != taskRunning || mt.dup != nil || mt.dupOf != nil {
			continue
		}
		if now-mt.start <= threshold {
			if eta := mt.start + threshold; eta < nextCheck {
				nextCheck = eta
			}
			continue
		}
		// Section III-A: speculation only pays off when the duplicate can
		// bypass the problem — i.e. another input replica exists. A task
		// whose input is single-replicated would drag its duplicate to the
		// same (possibly slow) source and just add contention there.
		if len(r.inputLocations(mt)) < 2 {
			continue
		}
		dup := r.d.ctx.allocMap()
		dup.run = r
		dup.index = mt.index
		dup.in = mt.in
		dup.inIdx = mt.inIdx
		dup.part = mt.part
		dup.block = mt.block
		dup.inputBytes = mt.inputBytes
		dup.outBytes = mt.outBytes
		dup.node = -1
		dup.dupOf = mt
		mt.dup = dup
		r.specDups = append(r.specDups, dup)
		r.enqueueMap(dup)
		r.d.specLaunched++
	}
	if nextCheck < des.Forever {
		if r.specEv != nil {
			r.sim().Cancel(r.specEv)
		}
		// The run itself is the timer; its Fire re-runs this check.
		r.specEv = r.sim().AtTimer(nextCheck+1e-9, r)
	}
}

var _ flow.Completion = (*mapTask)(nil)
var _ des.Timer = (*mapTask)(nil)
