package mapreduce

import (
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
	// The scan resumes at the pump's watermark: everything before it was
	// rejected earlier in this pump and nothing since has freed a slot.
	// Nil entries are launch tombstones (see dropPendingMap).
	if !r.cfg().DisableLocality {
		for qi := r.pumpScanFrom; qi < len(r.pendingMaps); qi++ {
			mt := r.pendingMaps[qi]
			if mt == nil {
				continue
			}
			for _, n := range r.inputLocations(mt) {
				if r.slots.mapFree[n] > 0 && !r.clus().Node(n).Failed() {
					r.pumpScanFrom = qi
					r.launchMap(mt, n, qi)
					return true
				}
			}
		}
		r.pumpScanFrom = len(r.pendingMaps)
	}
	// Pass 2: any free slot. A speculative duplicate avoids its original's
	// node — rerunning a straggler in place defeats the purpose.
	for _, n := range r.clus().Alive() {
		if r.slots.mapFree[n] <= 0 {
			continue
		}
		for qi, mt := range r.pendingMaps {
			if mt == nil {
				continue
			}
			if mt.dupOf != nil && mt.dupOf.state == taskRunning && mt.dupOf.node == n {
				continue
			}
			r.launchMap(mt, n, qi)
			return true
		}
	}
	return false
}

// inputLocations returns the live replicas of the task's input block. The
// result aliases a scratch buffer owned by the run: it is valid only until
// the next call, which is all the scheduler's scan-and-launch loops need,
// and keeps the per-event scheduling pass allocation-free.
func (r *jobRun) inputLocations(mt *mapTask) []int {
	r.locBuf = r.fs().FileBlockReplicas(mt.in, mt.part, mt.block, r.locBuf[:0])
	return r.locBuf
}

func (r *jobRun) launchMap(mt *mapTask, node int, queueIdx int) {
	r.dropPendingMap(queueIdx)
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
		for i, p := range r.pendingMaps {
			if p == loser {
				r.dropPendingMap(i)
				break
			}
		}
		if loser.dupOf != nil {
			r.d.specWasted++ // queued duplicate never even ran
		}
	}
	loser.to(taskDone) // resolved; never runs again
	loser.primary().dup = nil
}

// speculate queues duplicates for straggling mappers: running longer than
// SpeculationFactor times the mean completed duration, with no duplicate
// yet. Requires a handful of completions for a stable mean, like Hadoop.
// Tasks that will cross the threshold later get a wake-up, so stragglers
// are caught even when no more completions arrive.
func (r *jobRun) speculate() {
	if r.mapDoneCount < 5 || r.done {
		return
	}
	threshold := des.Time(r.cfg().SpeculationFactor * r.mapDoneSum / float64(r.mapDoneCount))
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
		r.pendingMaps = append(r.pendingMaps, dup)
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
