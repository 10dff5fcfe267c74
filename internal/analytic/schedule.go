package analytic

import (
	"maps"
	"math"
	"slices"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
)

// jobShape is the closed-form footprint of one graph job: byte volumes,
// task counts, and its effective output replication. Shapes depend only on
// the configuration, never on the failure schedule.
type jobShape struct {
	inBytes  float64
	shufByte float64 // map-output == shuffle volume
	outBytes float64
	mappers  int
	reducers int
	blockB   float64 // mean bytes per map task
	outRepl  int     // OutputRepl, or HybridRepl on checkpoint jobs
}

// phases is the closed-form timing of one job run on a given alive count.
type phases struct {
	mapTask  float64 // one map task
	mapEnd   float64 // map phase end, straggler/speculation applied
	mapWaves int
	total    float64 // job duration
	busy     float64 // Σ task-seconds (slot occupancy)
	resSec   float64 // bottleneck resource-seconds (contention floor)
	launched int     // speculative duplicates launched
	wasted   int     // duplicates that lost the race
}

// eval evaluates one chain/graph execution analytically: shapes once, then
// a replay of the failure schedule over the closed-form per-run timings.
type eval struct {
	cc     cluster.Config
	cfg    mapreduce.ChainConfig
	topo   *core.Topology
	shapes []jobShape

	nodes   int
	alive   int
	tenants int // sharing the cluster

	now        float64
	runCounter int
	episodes   []core.Episode // the cursor's record of adopted plans
	rec        *metrics.Recorder
	samples    bool

	specLaunched            int
	specWasted              int
	resourceSeconds         float64 // failure-free resource demand (contention floor)
	recoveryResourceSeconds float64 // cascade + restart resource demand
	busySeconds             float64

	pendingFails []pulse   // armed failures, absolute fire times
	detects      []float64 // pending detection deadlines
	future       []mapreduce.Injection

	// named are the victims the schedule names (an injection's Node, its
	// first victim), in the order they died; victims drawn at random are
	// counted in alive but not named. inputs are the external inputs in
	// the order the simulator lays them out, and replBuf is lostInputPart's
	// scratch replica set.
	named   []int
	jobs    []jobState
	inputs  []string
	replBuf []int
}

// pulse is an armed failure: fires at `at`, killing `count` nodes, the
// first of them node when node ≥ 0.
type pulse struct {
	at    float64
	count int
	node  int
}

// jobState is what the replay keeps per job: the counts of its queued
// recompute step, and the alive count at its last full run's start and
// len(named) at its completion.
type jobState struct {
	lost, mappers, splits int
	alive, named          int
}

// evaluate builds the job shapes of one tenant's graph execution and
// replays its failure schedule over them.
func evaluate(ccfg cluster.Config, cfg mapreduce.ChainConfig, topo *core.Topology, tenants int) (*eval, error) {
	ev := &eval{
		cc:      ccfg,
		cfg:     cfg,
		topo:    topo,
		nodes:   ccfg.Nodes,
		alive:   ccfg.Nodes,
		tenants: tenants,
		rec:     &metrics.Recorder{},
	}
	ev.buildShapes()
	ev.future = append(ev.future, cfg.Failures...)
	ev.samples = !cfg.NoTaskSamples && ev.totalTasks() <= sampleCap
	return ev, ev.replay()
}

// buildShapes walks the topological order once and derives each job's
// byte volumes and task counts from its inputs: an external input
// (ProducerOf == 0) has one partition of InputPerNode bytes per node, as
// the simulator lays it out; a produced file has its producer's reducer
// count and output volume.
func (ev *eval) buildShapes() {
	block := float64(ev.cfg.BlockSize)
	for j := 1; j <= ev.topo.NumJobs(); j++ {
		sh := jobShape{reducers: ev.cfg.NumReducers, outRepl: ev.cfg.OutputRepl}
		if ev.cfg.HybridEveryK > 0 && j%ev.cfg.HybridEveryK == 0 {
			sh.outRepl = ev.cfg.HybridRepl
		}
		for _, in := range ev.topo.Inputs(j) {
			parts, bytes := ev.nodes, float64(ev.nodes)*float64(ev.cfg.InputPerNode)
			if p := ev.topo.ProducerOf(in); p > 0 {
				parts, bytes = ev.shapes[p-1].reducers, ev.shapes[p-1].outBytes
			} else if !slices.Contains(ev.inputs, in) {
				ev.inputs = append(ev.inputs, in)
			}
			perPart := bytes / float64(parts)
			blocks := int(math.Ceil(perPart / block))
			if blocks < 1 {
				blocks = 1
			}
			sh.mappers += parts * blocks
			sh.inBytes += bytes
		}
		sh.shufByte = sh.inBytes * ev.cfg.MapOutputRatio
		sh.outBytes = sh.shufByte * ev.cfg.ReduceOutputRatio
		sh.blockB = sh.inBytes / float64(sh.mappers)
		ev.shapes = append(ev.shapes, sh)
	}
}

// totalTasks estimates the failure-free task count, for the sample cap.
func (ev *eval) totalTasks() int {
	n := 0
	for _, sh := range ev.shapes {
		n += sh.mappers + sh.reducers
	}
	return n
}

// ---- closed-form rate helpers -------------------------------------------

// diskStream is the per-stream rate of one disk running `streams`
// concurrent streams, under the seek-penalty model the flow layer applies.
func (ev *eval) diskStream(streams int, scale float64) float64 {
	if streams < 1 {
		streams = 1
	}
	pen := ev.cc.DiskSeekPenalty * float64(streams-1)
	if ev.cc.DiskPenaltyCap > 0 && pen > ev.cc.DiskPenaltyCap {
		pen = ev.cc.DiskPenaltyCap
	}
	return ev.cc.DiskBW * scale / (1 + pen) / float64(streams)
}

// shuffleF is the shuffle disk factor f, 0.25 unless configured, as the
// simulator's cluster defaults it.
func (ev *eval) shuffleF() float64 {
	if f := ev.cc.ShuffleDiskFactor; f > 0 {
		return f
	}
	return 0.25
}

// writeAmp is the replica-write disk amplification, 1 unless configured.
func (ev *eval) writeAmp() float64 {
	if amp := ev.cc.ReplicaWriteAmp; amp > 0 {
		return amp
	}
	return 1
}

// diskCapped is one disk's aggregate throughput under many streams.
func (ev *eval) diskCapped() float64 {
	d := ev.cc.DiskBW
	if ev.cc.DiskPenaltyCap > 0 {
		d /= 1 + ev.cc.DiskPenaltyCap
	}
	return d
}

// core is the oversubscribed switch capacity (sized from the full cluster,
// as the simulator does — it does not shrink when nodes fail).
func (ev *eval) core() float64 {
	ov := ev.cc.Oversubscription
	if ov <= 0 {
		ov = 1
	}
	return float64(ev.nodes) * ev.cc.NICBW / ov
}

// shuffleRate is the aggregate water-filled shuffle bandwidth with `alive`
// source nodes and `hosts` destination nodes: the min over the core, the
// pooled source/destination NICs, and the seek-capped disks at the shuffle
// disk weight f on both sides.
func (ev *eval) shuffleRate(alive, hosts int) float64 {
	f := ev.shuffleF()
	a := float64(alive)
	h := float64(hosts)
	disk := ev.diskCapped()
	return min(
		ev.core(),
		a*ev.cc.NICBW,
		h*ev.cc.NICBW,
		min(a, h)*disk/(2*f),
	)
}

// mapTaskTime is one map task's duration: startup, input read (local, or
// remote under DisableLocality), UDF compute, and the local map-output
// spill. scale < 1 models a straggler disk.
func (ev *eval) mapTaskTime(alive int, block, scale float64) float64 {
	s := ev.cc.MapSlots
	read := block / ev.diskStream(s, scale)
	if ev.cfg.DisableLocality {
		streams := float64(alive * s)
		r := min(
			ev.diskStream(s, 1),
			ev.cc.NICBW/float64(s),
			ev.core()/streams,
		)
		read = block / r
	}
	cpu := block / ev.cc.MapCPU
	write := block * ev.cfg.MapOutputRatio / ev.diskStream(s, scale)
	return float64(ev.cc.TaskStartup) + read + cpu + write
}

// shuffleDelayRounds is the fixed per-fetch latency a reducer serializes:
// sources visited under the fetch-parallelism bound, one
// ShuffleTransferDelay per round.
func (ev *eval) shuffleDelayRounds(alive, mappers int) float64 {
	d := float64(ev.cc.ShuffleTransferDelay)
	if d == 0 {
		return 0
	}
	sources := min(alive, mappers)
	fp := ev.cfg.FetchParallelism
	rounds := (sources + fp - 1) / fp
	return d * float64(rounds)
}

// steadyMapTask solves the fixed point of map/shuffle disk interference:
// while wave-1 reducers fetch completed map outputs, every disk carries the
// map stream plus the shuffle's src-read and dst-write at weight f, so the
// map stream's rate drops below its uncontended share and tasks stretch.
// The shuffle moves at the map production rate (it cannot outrun the
// mappers) unless its own water-filled cap is lower.
func (ev *eval) steadyMapTask(alive int, block, scale float64) float64 {
	free := ev.mapTaskTime(alive, block, scale)
	if ev.cfg.DisableLocality {
		// Remote reads dominate; disk interference is second-order.
		return free
	}
	f := ev.shuffleF()
	s := ev.cc.MapSlots
	// Two seek-penalized streams per disk: the map stream and the averaged
	// shuffle stream.
	eff := func(streams int) float64 {
		pen := ev.cc.DiskSeekPenalty * float64(streams-1)
		if ev.cc.DiskPenaltyCap > 0 && pen > ev.cc.DiskPenaltyCap {
			pen = ev.cc.DiskPenaltyCap
		}
		return ev.cc.DiskBW * scale / (1 + pen)
	}
	ceff := eff(s + 1)
	ioBytes := block * (1 + ev.cfg.MapOutputRatio)
	fixed := float64(ev.cc.TaskStartup) + block/ev.cc.MapCPU
	cap := ev.shuffleRate(alive, alive) / float64(alive) // per-disk shuffle cap
	t := free
	for i := 0; i < 8; i++ {
		// Per-disk shuffle throughput tracks this node's map output
		// production, bounded by the water-filled cap; it loads the
		// disk at weight f on both the source and destination side.
		prod := float64(ev.cc.MapSlots) * block * ev.cfg.MapOutputRatio / t
		if prod > cap {
			prod = cap
		}
		r := (ceff - 2*f*prod) / float64(s)
		if r < ceff/float64(s)/4 {
			r = ceff / float64(s) / 4
		}
		nt := fixed + ioBytes/r
		if math.Abs(nt-t) < 1e-9 {
			t = nt
			break
		}
		t = nt
	}
	if t < free {
		t = free
	}
	return t
}

// jobPhases computes the closed-form timing of one full job run on `alive`
// nodes. Straggler disks (NodeDiskScale) and speculation are applied to the
// map phase; the reduce side runs wave by wave.
func (ev *eval) jobPhases(j, alive int) phases {
	sh := &ev.shapes[j]
	var p phases
	ms, rs := ev.cc.MapSlots, ev.cc.ReduceSlots

	// --- map phase -----------------------------------------------------
	// The first wave runs uncontended (no map outputs to shuffle yet);
	// later waves stretch under shuffle interference.
	p.mapTask = ev.mapTaskTime(alive, sh.blockB, 1)
	steady := ev.steadyMapTask(alive, sh.blockB, 1)
	slots := alive * ms
	p.mapWaves = (sh.mappers + slots - 1) / slots
	p.mapEnd = p.mapTask + float64(p.mapWaves-1)*steady

	// Straggler disk scales, the slowest first.
	if scales := slices.Sorted(maps.Values(ev.cc.NodeDiskScale)); len(scales) > 0 {
		slowT := ev.mapTaskTime(alive, sh.blockB, scales[0])
		if ev.cfg.Speculation && slowT > core.SpeculationFactor*p.mapTask {
			// A duplicate launches once the straggler exceeds
			// factor× the mean and finishes one normal task later.
			capT := (core.SpeculationFactor + 1) * p.mapTask
			if capT < slowT {
				// Every straggler-hosted task gets a duplicate.
				perNode := (sh.mappers + alive - 1) / alive
				p.launched = max(perNode, ms)
				slowT = capT
			}
		}
		// Greedy slot scheduling: fast slots absorb most of the work,
		// but at least one wave runs on the straggler, so the phase can
		// end no earlier than one slow task and no earlier than the
		// work-balance point of the mixed-rate slot pool.
		slow := min(len(scales), alive-1)
		fastRate := float64((alive-slow)*ms) / p.mapTask
		slowRate := float64(slow*ms) / slowT
		balance := float64(sh.mappers) / (fastRate + slowRate)
		p.mapEnd = math.Max(p.mapEnd, math.Max(balance, slowT))
	}

	// --- reduce waves --------------------------------------------------
	q := sh.shufByte / float64(sh.reducers)
	w := q * ev.cfg.ReduceOutputRatio
	redSlots := alive * rs
	waves := (sh.reducers + redSlots - 1) / redSlots
	merge := q / ev.cc.ReduceCPU
	delay := ev.shuffleDelayRounds(alive, sh.mappers)

	end := 0.0
	busyRed := 0.0
	left := sh.reducers
	for k := 0; k < waves; k++ {
		wv := min(redSlots, left)
		left -= wv
		hosts := min(alive, wv)
		rate := ev.shuffleRate(alive, hosts)
		writeT := ev.writeTime(alive, wv, w, sh.outRepl, false)
		var launch, waveEnd float64
		if k == 0 {
			launch = 0
			// Wave-1 fetch overlaps the map phase at the production
			// rate; the last wave's outputs drain afterwards at the
			// full water-filled rate.
			prod := float64(slots) * sh.blockB * ev.cfg.MapOutputRatio / steady
			overlap := min(rate, prod)
			fetched := overlap * (p.mapEnd - p.mapTask)
			remaining := float64(wv)*q - fetched
			if remaining < 0 {
				remaining = 0
			}
			fetchEnd := p.mapEnd + remaining/rate + delay
			if floor := p.mapTask + q/ev.cc.NICBW + delay; fetchEnd < floor {
				fetchEnd = floor
			}
			waveEnd = fetchEnd + merge + writeT
		} else {
			shufT := float64(wv)*q/rate + delay
			if perRed := q / ev.cc.NICBW; shufT < perRed {
				shufT = perRed
			}
			launch = end
			waveEnd = end + float64(ev.cc.TaskStartup) + shufT + merge + writeT
		}
		busyRed += float64(wv) * (waveEnd - launch)
		end = waveEnd
	}
	p.total = end
	p.busy = float64(sh.mappers)*p.mapTask + busyRed

	// --- contention floor ---------------------------------------------
	f := ev.shuffleF()
	amp := ev.writeAmp()
	repl := float64(sh.outRepl)
	diskBytes := sh.inBytes + sh.shufByte + 2*f*sh.shufByte + sh.outBytes*(1+amp*(repl-1))
	diskSec := diskBytes / (float64(alive) * ev.diskCapped())
	coreSec := (sh.shufByte + sh.outBytes*(repl-1)) / ev.core()
	slotSec := float64(sh.mappers) * p.mapTask / float64(alive*ms)
	p.resSec = math.Max(math.Max(diskSec, coreSec), slotSec)
	return p
}

// writeTime is a reduce wave's output-commit time: the local spill and, for
// replicated outputs, the replication pipeline (NIC, core, and amplified
// destination disks). scatter spreads the blocks over every alive node
// instead of writing locally — the Section IV-B2 alternative.
func (ev *eval) writeTime(alive, wv int, bytes float64, repl int, scatter bool) float64 {
	if bytes <= 0 {
		return 0
	}
	perNode := (wv + alive - 1) / alive
	amp := ev.writeAmp()
	if scatter {
		rate := min(
			ev.cc.NICBW/float64(perNode),
			ev.core()/float64(wv),
			float64(alive)*ev.diskCapped()/float64(wv),
		)
		return bytes / rate
	}
	local := bytes / ev.diskStream(perNode, 1)
	if repl <= 1 {
		return local
	}
	flows := wv * (repl - 1)
	remoteRate := min(
		ev.cc.NICBW/float64((repl-1)*perNode),
		ev.core()/float64(flows),
		float64(alive)*ev.diskCapped()/(amp*float64(flows)),
	)
	return math.Max(local, bytes/remoteRate)
}

// emitRunSamples appends synthetic per-task samples for one full job run.
func (ev *eval) emitRunSamples(runIdx, job int, kind metrics.RunKind, start float64, p phases) {
	if !ev.samples {
		return
	}
	sh, alive := &ev.shapes[job], ev.alive
	ev.emitMapSamples(runIdx, job+1, kind, sh.mappers, start, p.mapTask)
	// Reducer waves re-derive launch/end the way jobPhases walked them:
	// approximate with even spacing of the post-map span across waves.
	redSlots := alive * ev.cc.ReduceSlots
	waves := (sh.reducers + redSlots - 1) / redSlots
	span := p.total / float64(waves)
	for r := 0; r < sh.reducers; r++ {
		wave := r / redSlots
		launch := start + float64(wave)*span
		if wave == 0 {
			launch = start
		}
		end := start + float64(wave+1)*span
		ev.rec.AddTask(metrics.TaskSample{
			RunIndex: runIdx, Job: job + 1, RunKind: kind, Kind: metrics.TaskReduce,
			Index: r, Node: r % alive,
			Start: des.Time(launch), End: des.Time(end),
		})
	}
}

// emitMapSamples appends n synthetic map-task samples for one run, wave by
// wave over the alive map slots.
func (ev *eval) emitMapSamples(runIdx, job int, kind metrics.RunKind, n int, start, mapTask float64) {
	slots := ev.alive * ev.cc.MapSlots
	for i := 0; i < n; i++ {
		s := start + float64(i/slots)*mapTask
		ev.rec.AddTask(metrics.TaskSample{
			RunIndex: runIdx, Job: job, RunKind: kind, Kind: metrics.TaskMap,
			Index: i, Node: i % ev.alive,
			Start: des.Time(s), End: des.Time(s + mapTask),
		})
	}
}
