package analytic

import (
	"math"

	"rcmp/internal/des"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
)

// workItem is one run the replay will start: an initial job, a cascade
// recomputation step, or the restart of the interrupted frontier.
type workItem struct {
	kind     metrics.RunKind
	job      int // job being run (for recompute: the job regenerated)
	frontier int // interrupted frontier this item recovers toward
	lost     int // recompute: output partitions to regenerate
	mappers  int // recompute: mappers to re-execute
}

// replay walks the failure schedule over the closed-form schedule: runs
// start and complete at modeled times, armed injections fire mid-run,
// detections cancel the running job (RCMP) or stretch it (Hadoop), and the
// planner's need-propagation is replayed as a cascade worklist.
func (ev *eval) replay() {
	var wl []workItem
	for j := range ev.shapes {
		wl = append(wl, workItem{kind: metrics.RunInitial, job: j, frontier: j})
	}

outer:
	for len(wl) > 0 {
		it := wl[0]
		wl = wl[1:]
		ev.runCounter++
		ev.started++
		runIdx := ev.runCounter
		start := ev.now
		ev.armInjections(runIdx, start)
		d, p, sp := ev.itemTiming(it)

		for {
			ft, fi := ev.nextFailure(start + d)
			dt := ev.nextDetect(start + d)
			if ft < 0 && dt < 0 {
				break
			}
			if ft >= 0 && (dt < 0 || ft <= dt) {
				before := ev.alive
				ev.fireFailure(fi)
				if ev.cfg.Mode == mapreduce.ModeHadoop {
					d = ev.hadoopExtend(d, ft-start, before, ev.alive)
				} else if ev.alive < before {
					// RCMP: the victims' tasks and persisted run
					// outputs are gone, so the running job cannot
					// commit any more — it survives only until the
					// failure is detected and cancelled.
					if min := ft + float64(ev.cc.FailureDetectionTimeout) - start + 1; d < min {
						d = min
					}
				}
				continue
			}
			ev.popDetect(dt)
			if ev.cfg.Mode == mapreduce.ModeHadoop {
				continue // folded into the hadoopExtend stretch
			}
			// RCMP: the running job dies at detection and the planner
			// rebuilds the cascade from the full victim set.
			ev.rec.AddRun(metrics.RunStat{
				RunIndex: runIdx, Job: it.job + 1, Kind: it.kind,
				Start: des.Time(start), End: des.Time(dt), Cancelled: true,
			})
			ev.now = dt
			wl = ev.plan(it.frontier)
			continue outer
		}

		end := start + d
		ev.rec.AddRun(metrics.RunStat{
			RunIndex: runIdx, Job: it.job + 1, Kind: it.kind,
			Start: des.Time(start), End: des.Time(end),
		})
		switch it.kind {
		case metrics.RunRecompute:
			ev.recoveryResourceSeconds += sp.resSec
			ev.emitStepSamples(runIdx, it, start, sp)
		case metrics.RunRestart:
			ev.recoveryResourceSeconds += p.resSec
			ev.emitRunSamples(runIdx, it.job, it.kind, ev.alive, start, p)
		default:
			ev.resourceSeconds += p.resSec
			ev.specLaunched += p.launched
			ev.specWasted += p.wasted
			ev.emitRunSamples(runIdx, it.job, it.kind, ev.alive, start, p)
		}
		ev.busySeconds += p.busy + sp.busy
		ev.now = end
	}
}

// itemTiming returns the run's modeled duration plus the phase breakdowns
// (full-run phases p for initial/restart, step phases sp for recompute).
func (ev *eval) itemTiming(it workItem) (float64, phases, phases) {
	var p, sp phases
	var d float64
	if it.kind == metrics.RunRecompute {
		sp = ev.stepPhases(it)
		d = sp.total + ev.m.RunOverhead
	} else {
		p = ev.jobPhases(it.job, ev.alive)
		d = p.total + ev.m.RunOverhead
	}
	if d < 0 {
		d = 0
	}
	return d, p, sp
}

// plan rebuilds the worklist after a detection, replaying the planner's
// need-propagation in counts: every not-checkpoint-protected ancestor of
// the frontier regenerates its lost partitions (ascending, so producers
// precede consumers), the frontier restarts, and the untouched tail of the
// graph follows on the degraded cluster.
func (ev *eval) plan(frontier int) []workItem {
	anc := ev.ancestors(frontier)
	floor := -1
	for j := frontier - 1; j >= 0; j-- {
		if !anc[j] {
			continue
		}
		if ev.shapes[j].outRepl > ev.deadCount() {
			floor = j
			break
		}
	}
	var wl []workItem
	for j := floor + 1; j < frontier; j++ {
		if !anc[j] {
			continue
		}
		sh := &ev.shapes[j]
		lost := lostCount(sh.reducers, ev.deadCount(), ev.nodes)
		m := lostCount(sh.mappers, ev.deadCount(), ev.nodes)
		if ev.cfg.NoMapOutputReuse {
			m = sh.mappers
		}
		if f := ev.cfg.ForceRecomputeMappers; f > m {
			m = f
		}
		if m > sh.mappers {
			m = sh.mappers
		}
		wl = append(wl, workItem{
			kind: metrics.RunRecompute, job: j, frontier: frontier,
			lost: lost, mappers: m,
		})
	}
	wl = append(wl, workItem{kind: metrics.RunRestart, job: frontier, frontier: frontier})
	for j := frontier + 1; j < len(ev.shapes); j++ {
		wl = append(wl, workItem{kind: metrics.RunInitial, job: j, frontier: j})
	}
	return wl
}

// ancestors marks every transitive producer of job f (0-based indices).
func (ev *eval) ancestors(f int) []bool {
	anc := make([]bool, len(ev.shapes))
	var visit func(int)
	visit = func(j int) {
		for _, in := range ev.topo.Inputs(j + 1) {
			if p := ev.topo.ProducerOf(in) - 1; p >= 0 && !anc[p] {
				anc[p] = true
				visit(p)
			}
		}
	}
	visit(f)
	return anc
}

// deadCount is how many nodes have failed so far.
func (ev *eval) deadCount() int { return ev.nodes - ev.alive }

// lostCount is the round-robin loss model: v victims out of n nodes hold
// ≈ parts·v/n of any evenly-placed set, and never fewer than one while
// anything is dead.
func lostCount(parts, dead, nodes int) int {
	if dead <= 0 || parts <= 0 {
		return 0
	}
	lost := int(math.Round(float64(parts) * float64(dead) / float64(nodes)))
	if lost < 1 {
		lost = 1
	}
	if lost > parts {
		lost = parts
	}
	return lost
}

// splits is the per-lost-partition split count for recomputation.
func (ev *eval) splits() int {
	if !ev.cfg.Split {
		return 1
	}
	s := ev.cfg.SplitRatio
	if s <= 0 {
		s = ev.alive
	}
	if s > ev.alive {
		s = ev.alive
	}
	if s < 1 {
		s = 1
	}
	return s
}

// stepPhases is the closed-form timing of one cascade recomputation step:
// the lost mappers re-run first, then lost·s split reducers regenerate the
// lost partitions, each fetching q/s bytes and writing its share — locally,
// or scattered over the cluster under ScatterOnly.
func (ev *eval) stepPhases(it workItem) phases {
	sh := &ev.shapes[it.job]
	alive := ev.alive
	ms, rs := ev.cc.MapSlots, ev.cc.ReduceSlots
	s := ev.splits()
	var p phases

	p.mapTask = ev.mapTaskTime(alive, sh.blockB, 1)
	slots := alive * ms
	if it.mappers > 0 {
		p.mapWaves = (it.mappers + slots - 1) / slots
	}
	p.mapEnd = float64(p.mapWaves) * p.mapTask

	q := sh.shufByte / float64(sh.reducers) / float64(s)
	w := q * ev.cfg.ReduceOutputRatio
	tasks := it.lost * s
	redSlots := alive * rs
	waves := (tasks + redSlots - 1) / redSlots
	merge := q / ev.cc.ReduceCPU
	delay := ev.shuffleDelayRounds(alive, it.mappers)

	end := 0.0
	busyRed := 0.0
	left := tasks
	for k := 0; k < waves; k++ {
		wv := redSlots
		if left < wv {
			wv = left
		}
		left -= wv
		hosts := alive
		if wv < hosts {
			hosts = wv
		}
		rate := ev.shuffleRate(alive, hosts)
		shufT := float64(wv)*q/rate + delay
		if floor := q / ev.cc.NICBW; shufT < floor {
			shufT = floor
		}
		writeT := ev.writeTime(alive, wv, w, sh.outRepl, ev.cfg.ScatterOnly)
		var launch, waveEnd float64
		if k == 0 {
			launch = 0
			fetchEnd := math.Max(p.mapEnd, p.mapTask+shufT)
			if it.mappers == 0 {
				fetchEnd = float64(ev.cc.TaskStartup) + shufT
			}
			waveEnd = fetchEnd + merge + writeT
		} else {
			launch = end
			waveEnd = end + float64(ev.cc.TaskStartup) + shufT + merge + writeT
		}
		busyRed += float64(wv) * (waveEnd - launch)
		end = waveEnd
	}
	p.total = end
	p.busy = float64(it.mappers)*p.mapTask + busyRed

	f := ev.cc.ShuffleDiskFactor
	if f <= 0 {
		f = 0.25
	}
	amp := ev.cc.ReplicaWriteAmp
	if amp <= 0 {
		amp = 1
	}
	repl := float64(sh.outRepl)
	mapB := float64(it.mappers) * sh.blockB
	fetchB := float64(it.lost) * sh.shufByte / float64(sh.reducers)
	outB := fetchB * ev.cfg.ReduceOutputRatio
	diskBytes := mapB*(1+ev.cfg.MapOutputRatio) + 2*f*fetchB + outB*(1+amp*(repl-1))
	diskSec := diskBytes / (float64(alive) * ev.diskCapped())
	coreSec := (fetchB + outB*(repl-1)) / ev.core()
	slotSec := float64(it.mappers) * p.mapTask / float64(alive*ms)
	p.resSec = math.Max(math.Max(diskSec, coreSec), slotSec)

	ts := ev.m.TimeStretch * ev.m.RecoveryStretch
	p.mapTask *= ts
	p.mapEnd *= ts
	p.total *= ts
	p.busy *= ts
	p.resSec *= ts
	return p
}

// emitStepSamples appends synthetic samples for one recomputation step.
func (ev *eval) emitStepSamples(runIdx int, it workItem, start float64, p phases) {
	if !ev.samples {
		return
	}
	alive := ev.alive
	slots := alive * ev.cc.MapSlots
	for i := 0; i < it.mappers; i++ {
		wave := i / slots
		s := start + float64(wave)*p.mapTask
		ev.rec.AddTask(metrics.TaskSample{
			RunIndex: runIdx, Job: it.job + 1, RunKind: metrics.RunRecompute,
			Kind: metrics.TaskMap, Index: i, Node: i % alive,
			Start: des.Time(s), End: des.Time(s + p.mapTask),
		})
	}
	sCount := ev.splits()
	tasks := it.lost * sCount
	if tasks == 0 {
		return
	}
	redDur := (p.total - p.mapEnd) / float64((tasks+alive*ev.cc.ReduceSlots-1)/(alive*ev.cc.ReduceSlots))
	for t := 0; t < tasks; t++ {
		launch := start + p.mapEnd
		ev.rec.AddTask(metrics.TaskSample{
			RunIndex: runIdx, Job: it.job + 1, RunKind: metrics.RunRecompute,
			Kind: metrics.TaskReduce, Index: t / sCount, Split: t % sCount,
			Node:  t % alive,
			Start: des.Time(launch), End: des.Time(launch + redDur),
		})
	}
}

// ---- event plumbing ------------------------------------------------------

// armInjections moves schedule entries tied to this started run into the
// armed set, with absolute fire times.
func (ev *eval) armInjections(runIdx int, start float64) {
	rest := ev.future[:0]
	for _, inj := range ev.future {
		if inj.AtRun == runIdx {
			ev.pendingFails = append(ev.pendingFails, pulse{
				at:    start + float64(inj.After),
				count: maxi(1, inj.Count),
			})
		} else {
			rest = append(rest, inj)
		}
	}
	ev.future = rest
}

// nextFailure returns the earliest armed failure strictly before horizon,
// or (-1, 0).
func (ev *eval) nextFailure(horizon float64) (float64, int) {
	best, idx := -1.0, -1
	for i, f := range ev.pendingFails {
		if f.at < horizon && (idx < 0 || f.at < best) {
			best, idx = f.at, i
		}
	}
	return best, idx
}

// nextDetect returns the earliest pending detection strictly before
// horizon, or -1.
func (ev *eval) nextDetect(horizon float64) float64 {
	best := -1.0
	for _, t := range ev.detects {
		if t < horizon && (best < 0 || t < best) {
			best = t
		}
	}
	return best
}

// fireFailure applies an armed failure: kill the victims (never below one
// alive node) and schedule its detection.
func (ev *eval) fireFailure(idx int) {
	f := ev.pendingFails[idx]
	ev.pendingFails = append(ev.pendingFails[:idx], ev.pendingFails[idx+1:]...)
	kill := f.count
	if kill > ev.alive-1 {
		kill = ev.alive - 1
	}
	if kill <= 0 {
		return
	}
	ev.alive -= kill
	ev.detects = append(ev.detects, f.at+float64(ev.cc.FailureDetectionTimeout))
}

// popDetect removes one pending detection at time t.
func (ev *eval) popDetect(t float64) {
	for i, d := range ev.detects {
		if d == t {
			ev.detects = append(ev.detects[:i], ev.detects[i+1:]...)
			return
		}
	}
}

// hadoopExtend stretches the running job over a mid-run failure: the work
// the victims had done is redone after the detection stall, and the rest of
// the job continues at the degraded rate.
func (ev *eval) hadoopExtend(d, elapsed float64, before, after int) float64 {
	if elapsed < 0 {
		elapsed = 0
	}
	if elapsed > d {
		elapsed = d
	}
	lostFrac := float64(before-after) / float64(before)
	stall := float64(ev.cc.FailureDetectionTimeout)
	remain := (d - elapsed) * float64(before) / float64(after)
	redo := lostFrac * elapsed
	nd := elapsed + stall + redo + remain
	if nd < d {
		nd = d
	}
	return nd
}

// result packages the replayed execution as a simulator-shaped Result.
func (ev *eval) result() *mapreduce.Result {
	return &mapreduce.Result{
		Total:               des.Time(ev.now),
		Runs:                ev.rec.Runs,
		Recorder:            ev.rec,
		StartedRuns:         ev.started,
		SpeculativeLaunched: ev.specLaunched,
		SpeculativeWasted:   ev.specWasted,
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
