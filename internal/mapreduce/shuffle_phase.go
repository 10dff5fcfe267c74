package mapreduce

import (
	"math"
	"math/bits"
	"slices"

	"rcmp/internal/des"
	"rcmp/internal/flow"
)

// shuffle_phase.go drives reduce tasks from launch through the shuffle:
// accounting map outputs into per-source buckets, batching bucket bytes
// into fetch flows, and handing the task to output_phase.go once every
// owed byte has arrived. Reducers follow the shared lifecycle machine in
// lifecycle.go; failure-time stalls and re-supply live in recovery.go.
//
// Buckets live in a slice indexed by source node (fixed length while the
// task runs), and each bucket is its own fetch-flow Completion, so the
// per-fetch cycle — account, batch, start flow, complete — allocates
// nothing beyond the pooled flow itself.
//
// On the aggregated shuffle tier (ChainConfig.ShuffleAggregation) the
// bucket slice collapses to a single per-destination aggregate: every
// source's contribution lands in bucket 0 and fetches run over the
// cluster-wide shuffle pools (cluster.AggShuffleUses) instead of the
// per-pair trunks, so per-reducer state and flow-network arbitration
// units stop growing with cluster size. Byte accounting (entitlements,
// re-supply debts, re-execution dedup) is unchanged; what the aggregate
// gives up is per-source attribution of endpoint contention and of
// in-flight bytes at failure time — see recovery.go.

// FlowDone implements flow.Completion for the bucket's in-flight fetch.
func (b *srcBucket) FlowDone(*flow.Flow) { b.rt.run.fetchDone(b) }

// setShuffling flips the reducer's shuffle-phase flag and mirrors it into
// its aggregated-tier bucket, where the dense offers read it; a bucket
// going live after a failure queues to join a cohort.
func (rt *reduceTask) setShuffling(on bool) {
	rt.shuffling = on
	if r := rt.run; r.d.agg {
		r.loosen(rt)
		rt.buckets[0].live = on
		if on && r.aggSlow {
			r.looseBuckets = append(r.looseBuckets, rt.buckets[0].idx)
		}
	}
}

// shuffleTrunk returns the coalescing trunk for fetches from src to dst.
// Trunks are owned by the driver's Context and persist across runs (and
// chains): every reduce task on dst fetching from src multiplexes its
// fetch flows onto this one trunk, so the flow network arbitrates one
// unit per communicating node pair instead of one per (reduce task,
// source node) pair — the trunk semantics guarantee the member transfers
// behave exactly like separate flows, so this changes simulation cost,
// not outcomes.
func (r *jobRun) shuffleTrunk(src, dst int) *flow.Trunk {
	return r.d.ctx.shuffleTrunk(r.clus(), src, dst)
}

// Re-execution dedup is a sequence rule, not a per-reducer bitmap. Every
// map index is offered to a shuffling reducer once — speculation kills the
// losing copy, persisted outputs are never in r.maps — unless Hadoop
// recovery re-executes it. A reducer has already counted a re-executed
// output exactly when it began shuffling before that output was declared
// lost: it was then either offered the first completion or took it from
// aggOut at its own shuffle start. Shuffle starts and loss detections
// stamp one run-level counter (rt.shufSeq ≥ 1; mt.lostSeq, 0 while the
// output was never lost), so
//
//	already counted  ⇔  rt.shufSeq < mt.lostSeq
//
// on both tiers; a relaunched reducer restamps, an output lost twice
// keeps its latest stamp.

// offerMapOutput accounts one completed map output to one shuffling reducer.
func (r *jobRun) offerMapOutput(rt *reduceTask, mt *mapTask) {
	share := float64(mt.outBytes) * rt.shareFrac(r.cfg().NumReducers)
	if rt.shufSeq < mt.lostSeq {
		// A re-execution of an output this reducer already counted: it only
		// covers bytes the reducer lost with the dead node.
		if share > rt.needResupply {
			share = rt.needResupply
		}
		rt.needResupply -= share
	}
	if share > 0 {
		if r.d.agg {
			r.loosen(rt)
			rt.buckets[0].pending += share // the single per-destination aggregate
		} else {
			rt.buckets[mt.node].pending += share
			r.markReady(rt, mt.node)
		}
	}
	r.kickFetch(rt)
	r.maybeFinishShuffle(rt)
}

// The aggregated tier replaces the per-map-completion broadcast — every
// completed mapper offering its share to every running reducer, an
// O(maps × reducers) chain of calls that dominates thousand-node profiles
// — with three cost classes:
//
//   - Failure-free, O(1) per completion: aggOfferBytes accumulates the
//     offered volume, each reducer holds a watermark of the volume it has
//     taken its share of, and reducers are synced (and their fetches
//     kicked) in bounded sweeps: once per chunk-per-reducer of new volume,
//     and finally when the map phase ends. kickFetch batches below the
//     chunk threshold anyway, so fetch flows keep their chunk granularity.
//   - After a node died under the run (aggSlow), one add per offer cohort
//     per completion: offerAggDense adds the output's share once for each
//     set of live buckets holding bit-identical (frac, pending) and kicks
//     only the idle members of cohorts that crossed the chunk threshold.
//   - Per lost output, O(reducers) calls: a Hadoop re-execution goes
//     through offerMapOutput per reducer, for its needResupply cap.
//
// The sweep path and the dense path kick fetches at different volumes, so
// they are not interchangeable mid-run — the run switches once, at its
// first failure (aggSlowFallback). Within a path the floating-point work
// per reducer is fixed: pending grows by float64(outBytes) × frac, one add
// per offer, in completion order. Chain totals are compared with == and
// split reducers have non-power-of-two fractions, so the adds must not be
// regrouped into Δvolume × frac; a cohort's one add is the bit-identical
// add each member would have made.

// offerAggDense is the post-failure aggregated-tier feeding loop for a
// first-time completion. Buckets that left their cohort since the last
// offer regroup first, so every live bucket is in a cohort; then each
// cohort takes one add, and the kicks run afterwards in ascending bucket
// index (every live bucket on the last map) — the order of a per-bucket
// add-and-kick loop, and the same outcome, because a kick only starts
// flows and schedules timers: no completion fires synchronously, so no
// kick can see or change another bucket mid-offer.
func (r *jobRun) offerAggDense(mt *mapTask) {
	r.regroup()
	out := float64(mt.outBytes)
	last := r.mapsRemaining == 0
	minChunk := r.fetchChunk()
	kicks := r.aggKicks[:0]
	for i := range r.cohorts { // empty pooled cohorts add and kick nothing
		c := &r.cohorts[i]
		if share := out * c.frac; share > 0 {
			c.pending += share
		}
		// kickFetch starts nothing below the chunk threshold while maps
		// remain, and a busy bucket waits for its fetch to complete.
		if !last && c.pending >= minChunk {
			kicks = append(kicks, c.members[0]...)
		}
	}
	if last { // maybeFinishShuffle waited for the last map
		for i := range r.aggBuckets {
			if r.aggBuckets[i].live {
				kicks = append(kicks, int32(i))
			}
		}
	}
	slices.Sort(kicks)
	r.aggKicks = kicks
	for _, i := range kicks {
		rt := r.aggBuckets[i].rt
		r.kickFetch(rt)
		r.maybeFinishShuffle(rt)
	}
}

// loosen takes rt's aggregated-tier bucket out of its offer cohort,
// writing the cohort's pending back, and queues it to regroup at the next
// dense offer. Every read or write of the bucket's pending, fl or live
// loosens it first. The check inlines, so the exact tier and the sweep
// path, whose buckets never join a cohort, pay no call.
func (r *jobRun) loosen(rt *reduceTask) {
	if r.d.agg && rt.buckets[0].cohort != 0 {
		r.leaveCohort(&rt.buckets[0])
	}
}

func (r *jobRun) leaveCohort(b *srcBucket) {
	c := &r.cohorts[b.cohort-1]
	b.pending = c.pending
	k := b.memberList()
	m := c.members[k]
	moved := m[len(m)-1]
	m[b.slot] = moved
	r.aggBuckets[moved].slot = b.slot
	c.members[k] = m[:len(m)-1]
	b.cohort = 0
	r.looseBuckets = append(r.looseBuckets, b.idx)
}

// memberList is the offerCohort.members list b belongs in: 0 idle, 1 busy.
func (b *srcBucket) memberList() int {
	if b.fl != nil {
		return 1
	}
	return 0
}

// regroup puts every queued live bucket (once) into the cohort whose
// (frac, pending) bits match its own, else into an empty or new one.
func (r *jobRun) regroup() {
	for _, i := range r.looseBuckets {
		b := &r.aggBuckets[i]
		if !b.live || b.cohort != 0 {
			continue
		}
		frac, pending := math.Float64bits(b.frac), math.Float64bits(b.pending)
		at, free := -1, -1
		for j := range r.cohorts {
			c := &r.cohorts[j]
			if len(c.members[0])+len(c.members[1]) == 0 {
				if free < 0 {
					free = j
				}
			} else if math.Float64bits(c.frac) == frac && math.Float64bits(c.pending) == pending {
				at = j
				break
			}
		}
		if at < 0 {
			if at = free; at < 0 {
				// Within capacity: a recycled run's cohort, member slices kept.
				at = len(r.cohorts)
				r.cohorts = slices.Grow(r.cohorts, 1)[:at+1]
			}
			c := &r.cohorts[at]
			c.frac, c.pending = b.frac, b.pending
			c.members[0], c.members[1] = c.members[0][:0], c.members[1][:0]
		}
		c := &r.cohorts[at]
		k := b.memberList()
		b.cohort, b.slot = int32(at+1), int32(len(c.members[k]))
		c.members[k] = append(c.members[k], i)
	}
	r.looseBuckets = r.looseBuckets[:0]
}

// aggSweepStep is the offered-volume interval between reducer sweeps:
// one fetch chunk per reducer.
func (r *jobRun) aggSweepStep() float64 {
	return r.fetchChunk() * float64(r.cfg().NumReducers)
}

// offerAggOutput is the aggregated-tier fast path of mapDone's feeding
// loop: account the bytes once, sweep reducers only at chunk boundaries.
func (r *jobRun) offerAggOutput(mt *mapTask) {
	r.aggOfferBytes += float64(mt.outBytes)
	if r.mapsRemaining == 0 || r.aggOfferBytes >= r.aggSweepNext {
		r.aggSweep()
		r.aggSweepNext = r.aggOfferBytes + r.aggSweepStep()
	}
}

// aggSweep syncs every shuffling reducer to the current offered volume
// and kicks its fetches.
func (r *jobRun) aggSweep() {
	for _, rt := range r.reduces {
		if rt.state == taskRunning && rt.shuffling {
			r.aggSync(rt)
			r.kickFetch(rt)
			r.maybeFinishShuffle(rt)
		}
	}
}

// aggSync credits rt its share of the volume offered since its watermark.
func (r *jobRun) aggSync(rt *reduceTask) {
	r.loosen(rt)
	if delta := r.aggOfferBytes - rt.aggAccounted; delta > 0 {
		rt.buckets[0].pending += delta * rt.shareFrac(r.cfg().NumReducers)
		rt.aggAccounted = r.aggOfferBytes
	}
}

// aggSlowFallback switches an aggregated run from sweeps to per-completion
// offers at its first failure, settling every shuffling reducer's
// watermark first and queueing its bucket for the first dense offer.
func (r *jobRun) aggSlowFallback() {
	if r.aggSlow || !r.d.agg {
		return
	}
	r.aggSlow = true
	for _, rt := range r.reduces {
		if rt.state == taskRunning && rt.shuffling {
			r.aggSync(rt)
			r.looseBuckets = append(r.looseBuckets, rt.buckets[0].idx)
		}
	}
}

// assignOneReduce launches at most one reducer, round-robin across nodes so
// a handful of recomputed tasks spread over the cluster.
func (r *jobRun) assignOneReduce() bool {
	if len(r.pendingReds) == 0 || r.slots.redSlotsFree <= 0 {
		return false
	}
	alive := r.clus().Alive()
	for i := 0; i < len(alive); i++ {
		n := alive[(r.redCursor+i)%len(alive)]
		if r.slots.redFree[n] > 0 {
			r.redCursor = (r.redCursor + i + 1) % len(alive)
			rt := r.pendingReds[0]
			r.pendingReds = r.pendingReds[1:]
			r.launchReduce(rt, n)
			return true
		}
	}
	return false
}

func (r *jobRun) launchReduce(rt *reduceTask, node int) {
	r.takeRedSlot(node)
	rt.run = r
	rt.to(taskRunning)
	rt.node = node
	rt.start = r.sim().Now()
	// One bucket slot per potential source node, all idle until bytes are
	// accounted. The slice must not be reallocated while fetches are in
	// flight (each bucket is its own flow Completion), so it is sized here,
	// before any fetch starts, and never grown — or, on the aggregated tier,
	// is the single aggregate slot begin carved out of aggBuckets.
	if r.d.agg {
		r.loosen(rt)
		b := &rt.buckets[0]
		*b = srcBucket{rt: rt, frac: b.frac, idx: b.idx}
	} else {
		numNodes := r.clus().NumNodes()
		if cap(rt.buckets) < numNodes {
			rt.buckets = make([]srcBucket, numNodes)
		} else {
			rt.buckets = rt.buckets[:numNodes]
		}
		for i := range rt.buckets {
			rt.buckets[i] = srcBucket{rt: rt, idx: int32(i)}
		}
		for k := range rt.ready {
			rt.ready[k] = grow(rt.ready[k], (numNodes+63)/64)
		}
	}
	rt.fetched = 0
	rt.needResupply = 0
	rt.aggAccounted = 0
	rt.shuffling = false
	// A relaunch after a zombie re-queue must also forget the previous
	// incarnation's output phase: a stale owedRewrites debt would otherwise
	// let a later detection start a rewrite flow for a reducer that is
	// still shuffling and drive reduceDone twice.
	rt.outFlows = rt.outFlows[:0]
	rt.owedRewrites = rt.owedRewrites[:0]
	rt.outPending = 0
	rt.outBytes = 0
	rt.outReplicas = rt.outReplicas[:0]
	rt.step = rtStepStartup
	rt.ev = r.sim().AfterTimer(r.ccfg().TaskStartup, rt)
}

func (r *jobRun) reduceShuffle(rt *reduceTask) {
	rt.ev = nil
	r.seq++
	rt.shufSeq = r.seq
	rt.setShuffling(true)
	frac := rt.shareFrac(r.cfg().NumReducers)
	if r.d.agg {
		pending, resupply := r.aggLaunchShare(frac)
		if pending > 0 {
			rt.buckets[0].pending += pending
		}
		rt.needResupply += resupply
	} else {
		// Persisted (reused) outputs and any mappers that completed before
		// this reducer launched. Outputs on a node that died but is not yet
		// detected become a resupply debt settled by the post-detection
		// re-executions. Ascending node order, as every sweep that reaches
		// the flow network must be. Failure-free runs skip the per-node
		// liveness lookups.
		anyFailed := r.fs().AnyFailed()
		for n, bytes := range r.aggOut {
			if bytes <= 0 {
				continue
			}
			if anyFailed && !r.fs().NodeAlive(n) {
				rt.needResupply += bytes * frac
				continue
			}
			rt.buckets[n].pending += bytes * frac
			r.markReady(rt, n)
		}
	}
	// Every byte offered so far is now accounted, so the aggregated tier's
	// watermark starts at the current total.
	rt.aggAccounted = r.aggOfferBytes
	r.kickFetch(rt)
	r.maybeFinishShuffle(rt)
}

// aggLaunchShare is the launch-time accounting above collapsed to the
// aggregated tier's single bucket: the bytes a reducer with share fraction
// frac starts its shuffle owed from alive holders, and its resupply debt
// for outputs on dead, not yet detected ones. While no node of the chain
// has failed every offered byte is on an alive node and the entitlement is
// one multiply. After a failure it is the aggOut scan, each sum taken from
// zero in ascending node order; the sums depend only on aggOut, the alive
// set and frac, so they are computed once per burst of launches — mapDone
// and handleDetection invalidate on their aggOut writes, a node death
// changes the alive count.
func (r *jobRun) aggLaunchShare(frac float64) (pending, resupply float64) {
	if !r.fs().AnyFailed() {
		return r.aggOfferBytes * frac, 0
	}
	m := &r.aggLaunch
	if alive := r.clus().NumAlive(); !m.valid || m.alive != alive || m.frac != frac {
		m.valid, m.alive, m.frac = true, alive, frac
		m.pending, m.resupply = 0, 0
		for n, bytes := range r.aggOut {
			switch {
			case bytes <= 0:
			case r.fs().NodeAlive(n):
				m.pending += bytes * frac
			default:
				m.resupply += bytes * frac
			}
		}
	}
	return m.pending, m.resupply
}

// kickFetch starts fetch flows for rt up to the parallelism bound. While
// mappers are still producing, fetches below the chunk threshold wait for
// more bytes to accumulate; this batching is what keeps the flow count (and
// simulation cost) proportional to data volume rather than task count,
// without changing the bytes moved or when they can finish.
func (r *jobRun) kickFetch(rt *reduceTask) {
	if rt.state != taskRunning || !rt.shuffling {
		return
	}
	par := r.cfg().FetchParallelism
	if r.d.agg { // one bucket, never stalled (nodeDown stalls exact-tier sources)
		r.loosen(rt)
		b := &rt.buckets[0]
		if rt.inflight < par && b.fl == nil && b.pending > 0 &&
			(r.mapsRemaining == 0 || b.pending >= r.fetchChunk()) {
			r.startFetch(rt, b, r.d.ctx.aggShuffleTrunk())
		}
		return
	}
	// Sources are visited in ascending node order: with a bounded fetch
	// parallelism the visit order decides which flows exist. Only the
	// ready bits are visited (see markReady), which is the same sweep with
	// the buckets that could not start skipped.
	ready := rt.ready[1]
	if r.mapsRemaining == 0 {
		ready = rt.ready[0]
	}
	for w, word := range ready {
		for ; word != 0; word &= word - 1 {
			if rt.inflight >= par {
				return
			}
			n := w<<6 | bits.TrailingZeros64(word)
			r.startFetch(rt, &rt.buckets[n], r.shuffleTrunk(n, rt.node))
			r.markReady(rt, n)
		}
	}
}

// fetchChunk is the bytes a bucket batches before a fetch starts while
// maps remain.
func (r *jobRun) fetchChunk() float64 { return float64(r.cfg().BlockSize) / 4 }

// startFetch moves b's pending bytes into one fetch flow over tr.
func (r *jobRun) startFetch(rt *reduceTask, b *srcBucket, tr *flow.Trunk) {
	b.inflight = b.pending
	b.pending = 0
	rt.inflight++
	b.fl = tr.StartC("shuffle", b.inflight, r.ccfg().ShuffleTransferDelay, b)
}

// markReady re-derives exact-tier source n's ready bits from its bucket,
// and must follow every write to the bucket's pending, fl or stalled:
// rt.ready[0] holds the buckets kickFetch may start once the last map is
// done (not stalled, no fetch in flight, bytes pending), rt.ready[1] the
// subset holding a full chunk, which it may start while maps remain. The
// aggregated tier's single bucket has no ready bits.
func (r *jobRun) markReady(rt *reduceTask, n int) {
	b := &rt.buckets[n]
	w, bit := n>>6, uint64(1)<<(n&63)
	rt.ready[0][w] &^= bit
	rt.ready[1][w] &^= bit
	if !b.stalled && b.fl == nil && b.pending > 0 {
		rt.ready[0][w] |= bit
		if b.pending >= r.fetchChunk() {
			rt.ready[1][w] |= bit
		}
	}
}

func (r *jobRun) fetchDone(b *srcBucket) {
	rt := b.rt
	r.loosen(rt)
	rt.fetched += b.inflight
	b.inflight = 0
	b.fl = nil
	rt.inflight--
	if !r.d.agg {
		r.markReady(rt, int(b.idx))
	}
	r.kickFetch(rt)
	r.maybeFinishShuffle(rt)
}

// maybeFinishShuffle moves a reducer to its merge/compute phase once the map
// phase is over and every owed byte has arrived.
func (r *jobRun) maybeFinishShuffle(rt *reduceTask) {
	if rt.state != taskRunning || !rt.shuffling {
		return
	}
	if r.mapsRemaining > 0 || rt.inflight > 0 || rt.needResupply > 1e-6 {
		return
	}
	r.loosen(rt)
	for i := range rt.buckets {
		b := &rt.buckets[i]
		if b.pending > 1e-6 || b.fl != nil {
			return
		}
	}
	rt.setShuffling(false)
	d := des.Time(0)
	if cpu := r.ccfg().ReduceCPU; cpu > 0 {
		d = des.Time(rt.fetched / cpu)
	}
	rt.step = rtStepCPU
	rt.ev = r.sim().AfterTimer(d, rt)
}

var _ flow.Completion = (*srcBucket)(nil)
var _ flow.Completion = (*reduceTask)(nil)
var _ des.Timer = (*reduceTask)(nil)
var _ des.Timer = (*jobRun)(nil)
