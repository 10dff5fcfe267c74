package analytic

import (
	"math"
	"slices"

	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/lineage"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
)

// replay walks the failure schedule over the closed-form schedule. One
// core.Cursor hands out the runs, as on every other engine: runs start and
// complete at modeled times, armed injections fire mid-run, and detections
// cancel the running job and hand the cursor a recovery plan (RCMP) or
// stretch the run (Hadoop). The twin keeps no per-task layout, so every
// run commits its job's empty lineage record: a full run appends it, and a
// step, naming no tasks, replaces none.
func (ev *eval) replay() error {
	cur := core.NewCursor(ev.topo, core.Policy{})
	recs := make([]lineage.JobRecord, ev.topo.NumJobs())
	ev.jobs = make([]jobState, ev.topo.NumJobs())
outer:
	for {
		run, ok := cur.Next()
		if !ok {
			ev.episodes = cur.Episodes()
			return nil
		}
		ev.runCounter++
		runIdx := ev.runCounter
		start := ev.now
		ev.armInjections(runIdx, start)
		js := &ev.jobs[run.Job-1]
		if run.Step == nil {
			js.alive = ev.alive
		}
		d, p, sp := ev.runTiming(run)

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
				// Within-job recovery, folded into the hadoopExtend
				// stretch, unless an input the job reads is lost.
				if err := ev.hadoopInputLoss(run.Job); err != nil {
					return err
				}
				continue
			}
			// RCMP: the running job dies at detection and the cursor
			// adopts a plan over the full victim set.
			ev.rec.AddRun(metrics.RunStat{
				RunIndex: runIdx, Job: run.Job, Kind: run.Kind,
				Start: des.Time(start), End: des.Time(dt), Cancelled: true,
			})
			ev.now = dt
			plan, err := ev.plan(cur.Frontier())
			if err != nil {
				return err
			}
			cur.Recover(plan)
			continue outer
		}

		end := start + d
		ev.rec.AddRun(metrics.RunStat{
			RunIndex: runIdx, Job: run.Job, Kind: run.Kind,
			Start: des.Time(start), End: des.Time(end),
		})
		switch run.Kind {
		case metrics.RunRecompute:
			ev.recoveryResourceSeconds += sp.resSec
			ev.emitStepSamples(runIdx, run.Job, start, sp)
		case metrics.RunRestart:
			ev.recoveryResourceSeconds += p.resSec
			ev.emitRunSamples(runIdx, run.Job-1, run.Kind, start, p)
		default:
			ev.resourceSeconds += p.resSec
			ev.specLaunched += p.launched
			ev.specWasted += p.wasted
			ev.emitRunSamples(runIdx, run.Job-1, run.Kind, start, p)
		}
		ev.busySeconds += p.busy + sp.busy
		ev.now = end
		if run.Step == nil {
			js.named = len(ev.named)
		}
		if _, err := cur.Done(run, &recs[run.Job-1]); err != nil {
			return err
		}
	}
}

// runTiming returns the run's modeled duration plus the phase breakdowns
// (full-run phases p for initial/restart, step phases sp for recompute).
func (ev *eval) runTiming(run core.Run) (d float64, p, sp phases) {
	if run.Step != nil {
		sp = ev.stepPhases(run.Job)
		return sp.total, p, sp
	}
	p = ev.jobPhases(run.Job-1, ev.alive)
	return p.total, p, sp
}

// plan is core.BuildGraphPlan's rule at job granularity, for a detection
// while frontier is next or running. Demand is seeded from the inputs of
// every pending job and walks down through each stepped job's re-run
// mappers (lostCount re-runs at least one). A produced file whose
// replication is at most the dead count has lost partitions. An external
// input is lost only where the named victims hold every replica of a
// partition (lostInputPart), which is the planner's lost-input error: at
// once if a pending job reads it, and through a stepped job if that job's
// mapper of the partition re-runs. Every mapper re-runs without map-output
// reuse; with it, the twin prices every map data-local, so the mapper ran
// on one of the dead replicas, unless DisableLocality spreads the reads.
//
// The plan's steps name only their job: the twin keeps each step's counts
// in ev.jobs (lost partitions, re-run mappers, splits per partition,
// fixed at plan time as core's splitsFor does). Nothing is invalidated:
// the twin keeps no persisted map outputs to mark.
func (ev *eval) plan(frontier int) (*core.Plan, error) {
	dead := ev.deadCount()
	need := make([]bool, frontier)
	demand := func(job int, pending bool) error {
		for _, in := range ev.topo.Inputs(job) {
			p := ev.topo.ProducerOf(in)
			switch {
			case p == 0:
				if !pending && ev.cfg.DisableLocality && !ev.cfg.NoMapOutputReuse {
					continue
				}
				if part := ev.lostInputPart(in); part >= 0 {
					return core.LostInputError(part, in)
				}
			case p < frontier && ev.fileRepl(in) <= dead:
				need[p] = true
			}
		}
		return nil
	}
	for c := frontier; c <= ev.topo.NumJobs(); c++ {
		if err := demand(c, true); err != nil {
			return nil, err
		}
	}
	plan := &core.Plan{RestartJob: frontier}
	for j := frontier - 1; j >= 1; j-- {
		if !need[j] {
			continue
		}
		sh := &ev.shapes[j-1]
		m := lostCount(sh.mappers, dead, ev.nodes)
		if ev.cfg.NoMapOutputReuse {
			m = sh.mappers
		}
		js := &ev.jobs[j-1]
		js.mappers = min(max(m, ev.cfg.ForceRecomputeMappers), sh.mappers)
		js.lost = lostCount(sh.reducers, dead, ev.nodes)
		js.splits = ev.splits()
		if err := demand(j, false); err != nil {
			return nil, err
		}
		plan.Steps = append(plan.Steps, core.JobStep{Job: j})
	}
	slices.Reverse(plan.Steps)
	return plan, nil
}

// hadoopInputLoss is the simulator's Hadoop-mode detection check at job
// granularity: within-job recovery cannot regenerate an input the running
// job reads, so a partition of one held only by dead nodes ends the run.
// The twin raises it only where it can name such a partition.
func (ev *eval) hadoopInputLoss(job int) error {
	for _, in := range ev.topo.Inputs(job) {
		var part int
		if p := ev.topo.ProducerOf(in); p > 0 {
			part = ev.lostOutputPart(p)
		} else {
			part = ev.lostInputPart(in)
		}
		if part >= 0 {
			return mapreduce.HadoopInputLost(in, part, ev.fileRepl(in))
		}
	}
	return nil
}

// lostInputPart returns the lowest partition of external input file whose
// every replica is a named victim, or -1. The simulator's createInput lays
// the external inputs out in topological order with dfs.PlanReplicas over
// every node: partition p on writer p, then on the next nodes of writer
// p's placement cursor, which starts at p+1 and carries over from one
// input to the next. Only a named victim's own partition can be lost.
func (ev *eval) lostInputPart(file string) int {
	k, repl, lost := slices.Index(ev.inputs, file), ev.fileRepl(file), -1
	unnamed := func(n int) bool { return !slices.Contains(ev.named, n) }
	for _, p := range ev.named {
		cur := p + 1
		for range k + 1 {
			ev.replBuf = append(ev.replBuf[:0], p)
			for a := 0; len(ev.replBuf) < repl && a < 2*ev.nodes; a++ {
				if n := cur % ev.nodes; !slices.Contains(ev.replBuf, n) {
					ev.replBuf = append(ev.replBuf, n)
				}
				cur++
			}
		}
		if (lost < 0 || p < lost) && !slices.ContainsFunc(ev.replBuf, unnamed) {
			lost = p
		}
	}
	return lost
}

// lostOutputPart returns a partition of job p's output that a named victim
// held alone, or -1. Without a per-task layout only replication 1 can be
// pinned down: the simulator deals a lone tenant's reducers round-robin
// over the alive nodes, each writing its partition's first replica
// locally, so when job p had at least as many reducers as alive nodes,
// every node alive through its full run wrote one (a named victim counts
// as alive until its injection fires). Other tenants' reducers can hold a
// node's slots, so a shared cluster pins nothing. The partition named is
// the one the twin's task samples place on the first such victim.
func (ev *eval) lostOutputPart(p int) int {
	sh, js := &ev.shapes[p-1], &ev.jobs[p-1]
	if ev.tenants > 1 || sh.outRepl != 1 || sh.reducers < js.alive || js.named >= len(ev.named) {
		return -1
	}
	return ev.named[js.named] % sh.reducers
}

// fileRepl is the replication of a file as the simulator writes it:
// InputRepl, capped at the node count, for an external input, its
// producer's output replication otherwise.
func (ev *eval) fileRepl(file string) int {
	if p := ev.topo.ProducerOf(file); p > 0 {
		return ev.shapes[p-1].outRepl
	}
	return min(ev.cfg.InputRepl, ev.nodes)
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
	return min(max(int(math.Round(float64(parts)*float64(dead)/float64(nodes))), 1), parts)
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
	return max(min(s, ev.alive), 1)
}

// stepPhases is the closed-form timing of one cascade recomputation step:
// the lost mappers re-run first, then lost·s split reducers regenerate the
// lost partitions, each fetching q/s bytes and writing its share — locally,
// or scattered over the cluster under ScatterOnly.
func (ev *eval) stepPhases(job int) phases {
	sh, js := &ev.shapes[job-1], &ev.jobs[job-1]
	alive := ev.alive
	ms, rs := ev.cc.MapSlots, ev.cc.ReduceSlots
	mappers, lost, s := js.mappers, js.lost, js.splits
	var p phases

	p.mapTask = ev.mapTaskTime(alive, sh.blockB, 1)
	slots := alive * ms
	if mappers > 0 {
		p.mapWaves = (mappers + slots - 1) / slots
	}
	p.mapEnd = float64(p.mapWaves) * p.mapTask

	q := sh.shufByte / float64(sh.reducers) / float64(s)
	w := q * ev.cfg.ReduceOutputRatio
	tasks := lost * s
	redSlots := alive * rs
	waves := (tasks + redSlots - 1) / redSlots
	merge := q / ev.cc.ReduceCPU
	delay := ev.shuffleDelayRounds(alive, mappers)

	end := 0.0
	busyRed := 0.0
	left := tasks
	for k := 0; k < waves; k++ {
		wv := min(redSlots, left)
		left -= wv
		hosts := min(alive, wv)
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
			if mappers == 0 {
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
	p.busy = float64(mappers)*p.mapTask + busyRed

	f := ev.shuffleF()
	amp := ev.writeAmp()
	repl := float64(sh.outRepl)
	mapB := float64(mappers) * sh.blockB
	fetchB := float64(lost) * sh.shufByte / float64(sh.reducers)
	outB := fetchB * ev.cfg.ReduceOutputRatio
	diskBytes := mapB*(1+ev.cfg.MapOutputRatio) + 2*f*fetchB + outB*(1+amp*(repl-1))
	diskSec := diskBytes / (float64(alive) * ev.diskCapped())
	coreSec := (fetchB + outB*(repl-1)) / ev.core()
	slotSec := float64(mappers) * p.mapTask / float64(alive*ms)
	p.resSec = math.Max(math.Max(diskSec, coreSec), slotSec)
	return p
}

// emitStepSamples appends synthetic samples for one recomputation step of
// job: mappers 0..m−1, then each lost partition 0..lost−1 split s ways.
func (ev *eval) emitStepSamples(runIdx, job int, start float64, p phases) {
	if !ev.samples {
		return
	}
	js, alive := &ev.jobs[job-1], ev.alive
	ev.emitMapSamples(runIdx, job, metrics.RunRecompute, js.mappers, start, p.mapTask)
	sCount := js.splits
	tasks := js.lost * sCount
	if tasks == 0 {
		return
	}
	redDur := (p.total - p.mapEnd) / float64((tasks+alive*ev.cc.ReduceSlots-1)/(alive*ev.cc.ReduceSlots))
	for t := 0; t < tasks; t++ {
		launch := start + p.mapEnd
		ev.rec.AddTask(metrics.TaskSample{
			RunIndex: runIdx, Job: job, RunKind: metrics.RunRecompute,
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
				count: max(1, inj.Count),
				node:  inj.Node,
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
// alive node), name the first if the schedule names it, and schedule its
// detection.
func (ev *eval) fireFailure(idx int) {
	f := ev.pendingFails[idx]
	ev.pendingFails = append(ev.pendingFails[:idx], ev.pendingFails[idx+1:]...)
	kill := min(f.count, ev.alive-1)
	if kill <= 0 {
		return
	}
	if f.node >= 0 && f.node < ev.nodes && !slices.Contains(ev.named, f.node) {
		ev.named = append(ev.named, f.node)
	}
	ev.alive -= kill
	ev.detects = append(ev.detects, f.at+float64(ev.cc.FailureDetectionTimeout))
}

// popDetect removes one pending detection at time t.
func (ev *eval) popDetect(t float64) {
	if i := slices.Index(ev.detects, t); i >= 0 {
		ev.detects = slices.Delete(ev.detects, i, i+1)
	}
}

// hadoopExtend stretches the running job over a mid-run failure: the work
// the victims had done is redone after the detection stall, and the rest of
// the job continues at the degraded rate.
func (ev *eval) hadoopExtend(d, elapsed float64, before, after int) float64 {
	elapsed = min(max(elapsed, 0), d)
	lostFrac := float64(before-after) / float64(before)
	stall := float64(ev.cc.FailureDetectionTimeout)
	remain := (d - elapsed) * float64(before) / float64(after)
	redo := lostFrac * elapsed
	return max(elapsed+stall+redo+remain, d)
}

// result packages the replayed execution as a simulator-shaped Result.
func (ev *eval) result() *mapreduce.Result {
	return &mapreduce.Result{
		Total:               des.Time(ev.now),
		Runs:                ev.rec.Runs,
		Recorder:            ev.rec,
		StartedRuns:         ev.runCounter,
		Episodes:            ev.episodes,
		SpeculativeLaunched: ev.specLaunched,
		SpeculativeWasted:   ev.specWasted,
	}
}
