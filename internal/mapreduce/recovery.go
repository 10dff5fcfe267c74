package mapreduce

import (
	"rcmp/internal/metrics"
)

// recovery.go reacts to node failures inside one run: the instant-death
// effects (nodeDown), the master's detection-time bookkeeping
// (handleDetection, Hadoop within-job recovery), and whole-run cancellation
// (RCMP's reaction to irreversible data loss). All task-state changes go
// through the shared lifecycle machine in lifecycle.go.

// nodeDown reacts to the instant a node dies: everything it was doing or
// serving stops making progress. The master has not detected it yet.
func (r *jobRun) nodeDown(n int) {
	if r.done {
		return
	}
	r.slots.nodeDown(n)
	// An aggregated run leaves the sweep path for per-completion offers the
	// moment any failure can make outputs disappear.
	r.aggSlowFallback()
	for _, mt := range r.maps {
		if mt.state == taskRunning && mt.node == n {
			r.abortMapWork(mt)
			mt.to(taskZombie)
		}
	}
	// A duplicate dying with its node is simply dropped; the original is
	// still running elsewhere (or will be re-queued itself).
	for _, dup := range r.specDups {
		if dup.state == taskRunning && dup.node == n {
			r.abortMapWork(dup)
			dup.to(taskDone)
			if dup.dupOf != nil {
				dup.dupOf.dup = nil
			}
		}
	}
	for _, rt := range r.reduces {
		if rt.state == taskRunning && rt.node == n {
			r.abortReduceWork(rt)
			rt.to(taskZombie)
			continue
		}
		if rt.state != taskRunning {
			continue
		}
		// Healthy reducer: fetches sourced from n stall. The aggregated
		// tier cannot attribute in-flight bytes to one source — its single
		// bucket multiplexes every alive node — so the fetch keeps flowing
		// through the pooled path (one node among hundreds barely moves the
		// pool capacities) and only the exact tier stalls per source.
		if !r.d.agg {
			b := &rt.buckets[n]
			if b.fl != nil {
				r.net().Abort(b.fl)
				b.fl = nil
				b.pending += b.inflight
				b.inflight = 0
				rt.inflight--
			}
			b.stalled = true
			r.markReady(rt, n)
		}
		// Output-write replicas targeting n will be retargeted at detection.
		kept := rt.outFlows[:0]
		for _, of := range rt.outFlows {
			if of.tgt == n {
				r.net().Abort(of.fl)
				rt.owedRewrites = append(rt.owedRewrites, n)
				continue
			}
			kept = append(kept, of)
		}
		rt.outFlows = kept
	}
}

func (r *jobRun) abortMapWork(mt *mapTask) {
	if mt.fl != nil {
		r.net().Abort(mt.fl)
		mt.fl = nil
	}
	r.sim().Cancel(mt.ev)
	mt.ev = nil
}

func (r *jobRun) abortReduceWork(rt *reduceTask) {
	r.loosen(rt)
	for i := range rt.buckets {
		b := &rt.buckets[i]
		if b.fl != nil {
			r.net().Abort(b.fl)
			b.fl = nil
			b.pending += b.inflight
			b.inflight = 0
			rt.inflight--
			if !r.d.agg {
				r.markReady(rt, i)
			}
		}
	}
	r.sim().Cancel(rt.ev)
	rt.ev = nil
	for _, of := range rt.outFlows {
		if of.fl != nil {
			r.net().Abort(of.fl)
		}
	}
	rt.outFlows = rt.outFlows[:0]
	rt.setShuffling(false)
}

// handleDetection performs Hadoop-style within-job recovery once the master
// notices node n is dead: zombie tasks are re-queued elsewhere, completed
// map outputs on n are re-executed, and reducers' lost unfetched bytes are
// re-supplied by those re-executions.
func (r *jobRun) handleDetection(n int) {
	if r.done {
		return
	}
	r.seq++
	for _, mt := range r.maps {
		switch {
		case mt.state == taskBlocked:
			mt.to(taskPending)
			r.enqueueMap(mt)
		case mt.state == taskZombie && mt.node == n:
			mt.to(taskPending)
			mt.node = -1
			r.enqueueMap(mt)
		case mt.state == taskDone && mt.node == n:
			// Output lost: re-execute. Reducers that already fetched keep
			// their bytes; the rest arrives via needResupply.
			r.aggOut[n] = 0
			r.aggLaunch.valid = false
			mt.to(taskPending)
			mt.lostSeq = r.seq
			mt.node = -1
			r.mapsRemaining++
			r.enqueueMap(mt)
		}
	}
	for _, rt := range r.reduces {
		if rt.state == taskZombie && rt.node == n {
			rt.to(taskPending)
			rt.node = -1
			r.pendingReds = append(r.pendingReds, rt)
			continue
		}
		if rt.state != taskRunning {
			continue
		}
		if !r.d.agg {
			// Forget the bucket entirely, the way the old map delete did: a
			// later re-execution offering bytes from another node starts it
			// fresh, and the dead source never contributes again.
			rt.needResupply += rt.buckets[n].pending
			rt.buckets[n] = srcBucket{rt: rt, idx: int32(n)}
			r.markReady(rt, n)
		}
		// Replace aborted replica writes with a new target.
		var stillOwed []int
		for _, dead := range rt.owedRewrites {
			if dead != n {
				stillOwed = append(stillOwed, dead)
				continue
			}
			tgt := r.pickReplacementTarget(rt)
			fl := r.net().StartC("red-rewrite", float64(rt.outBytes),
				r.clus().WriteUsesScratch(rt.node, tgt), 0, rt)
			rt.outFlows = append(rt.outFlows, outFlow{fl, tgt})
			for i, rep := range rt.outReplicas {
				if rep == n {
					rt.outReplicas[i] = tgt
				}
			}
		}
		rt.owedRewrites = stillOwed
		r.maybeFinishShuffle(rt)
	}
	r.wake()
}

func (r *jobRun) pickReplacementTarget(rt *reduceTask) int {
	alive := r.clus().Alive()
	for _, n := range alive {
		used := n == rt.node
		for _, rep := range rt.outReplicas {
			if rep == n {
				used = true
			}
		}
		if !used {
			return n
		}
	}
	return alive[0]
}

// cancel aborts the whole run (RCMP's reaction to irreversible data loss).
func (r *jobRun) cancel() {
	if r.done {
		return
	}
	r.done = true
	if r.specEv != nil {
		r.sim().Cancel(r.specEv)
		r.specEv = nil
	}
	for _, mt := range r.maps {
		if mt.state == taskRunning || mt.state == taskZombie {
			if mt.state == taskRunning && !r.clus().Node(mt.node).Failed() {
				// A cancelled task's slot frees: the node is alive and the
				// work simply stops. (Zombies' slots were already zeroed
				// wholesale by nodeDown.)
				r.freeMapSlot(mt.node)
			}
			r.abortMapWork(mt)
		}
	}
	for _, dup := range r.specDups {
		if dup.state == taskRunning || dup.state == taskZombie {
			if dup.state == taskRunning && !r.clus().Node(dup.node).Failed() {
				r.freeMapSlot(dup.node)
			}
			r.abortMapWork(dup)
		}
	}
	for _, rt := range r.reduces {
		if rt.state == taskRunning || rt.state == taskZombie {
			if rt.state == taskRunning && !r.clus().Node(rt.node).Failed() {
				r.freeRedSlot(rt.node)
			}
			r.abortReduceWork(rt)
		}
	}
	r.d.rec.AddRun(metrics.RunStat{
		RunIndex: r.runIndex, Job: r.job, Kind: r.kind, Start: r.start,
		End: r.sim().Now(), Cancelled: true,
	})
}
