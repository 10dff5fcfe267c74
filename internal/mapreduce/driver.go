package mapreduce

import (
	"fmt"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/metrics"
)

// graphJob is one job of the executing graph, in topological position
// order: the driver submits jobs[0], jobs[1], ... and the 1-based frontier
// indexes into this slice.
type graphJob struct {
	name   string
	inputs []string
	output string
}

// Driver executes one job graph on a simulated cluster under a chosen
// failure-resilience strategy (the paper's middleware + master together):
// one tenant of its context's session. Chains run through the same driver
// as the linear degenerate case.
type Driver struct {
	ctx  *Context
	sim  *des.Simulator
	clus *cluster.Cluster
	fs   *dfs.FS
	ch   *lineage.Chain
	rec  *metrics.Recorder
	cfg  ChainConfig
	topo *core.Topology
	jobs []graphJob
	agg  bool // aggregated shuffle tier resolved for this chain

	frontier    int // 1-based topological position currently being computed
	runCounter  int
	failedNodes map[int]bool
	// pendingDetect counts injected failures whose detection timer has not
	// fired yet. A chain may legally complete inside that window with lost
	// partitions nobody noticed, so the completion-time conservation
	// invariant only applies when it is zero.
	pendingDetect int
	current       *jobRun
	recovering    bool
	planQueue     []core.JobStep
	finished      bool
	err           error
	endTime       des.Time

	specLaunched int
	specWasted   int
}

// RunChain executes the chain on a fresh simulation context for ccfg and
// returns the timing result. The execution is fully deterministic for a
// given (ccfg, cfg) pair. Callers that run many chains at one scale keep a
// Context instead (NewContext, Context.RunChain) and reuse its topology.
func RunChain(ccfg cluster.Config, cfg ChainConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	return NewContext(ccfg).RunChain(cfg)
}

// RunChain executes one chain on the context: the linear special case of
// RunGraph, lowered with the historical chain file names.
func (ctx *Context) RunChain(cfg ChainConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ctx.RunGraph(GraphConfig{ChainConfig: cfg, Jobs: LinearJobs(cfg.NumJobs)})
}

// newDriver assembles a driver on a freshly reset context. The config must
// be defaulted and validated, with NumJobs equal to the topology's job
// count.
func newDriver(ctx *Context, cfg ChainConfig, topo *core.Topology) *Driver {
	d := &Driver{
		ctx:         ctx,
		sim:         ctx.sim,
		clus:        ctx.clus,
		fs:          ctx.fs,
		ch:          lineage.NewChain(),
		rec:         &metrics.Recorder{},
		cfg:         cfg,
		topo:        topo,
		frontier:    1,
		failedNodes: make(map[int]bool),
	}
	jobs := make([]graphJob, topo.NumJobs())
	for j := 1; j <= topo.NumJobs(); j++ {
		jobs[j-1] = graphJob{name: topo.Name(j), inputs: topo.Inputs(j), output: topo.Output(j)}
	}
	d.jobs = jobs
	return d
}

// reserveRecorder pre-sizes the recorder for the failure-free sample
// volume (failure chains grow past it once, harmlessly): one sample per
// map block and reducer per job, one run stat per job.
func (d *Driver) reserveRecorder() {
	taskCap := 0
	if !d.cfg.NoTaskSamples {
		blocksPerPart := int((d.cfg.InputPerNode + d.cfg.BlockSize - 1) / d.cfg.BlockSize)
		taskCap = d.cfg.NumJobs * (d.clus.NumNodes()*blocksPerPart + d.cfg.NumReducers)
	}
	d.rec.Reserve(taskCap, d.cfg.NumJobs+4)
}

// finish folds the drained simulation into a Result.
func (d *Driver) finish() (*Result, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.finished {
		return nil, fmt.Errorf("mapreduce: simulation drained before chain completed (job %d)", d.frontier)
	}
	if err := d.checkInvariants(); err != nil {
		return nil, err
	}
	if d.current != nil {
		d.ctx.recycleRun(d.current)
		d.current = nil
	}
	return &Result{
		Total:               d.endTime,
		Runs:                d.rec.Runs,
		Recorder:            d.rec,
		StartedRuns:         d.runCounter,
		SpeculativeLaunched: d.specLaunched,
		SpeculativeWasted:   d.specWasted,
		Events:              d.sim.Processed,
		Flows:               d.clus.Net.Completed,
	}, nil
}

// checkInvariants runs the cross-run consistency checks at chain
// completion, inside every experiment run rather than only in unit tests.
//
// Alive-set accounting always holds: the cluster's and the DFS's views of
// which nodes died, plus the driver's failed set, must agree node by node.
// Partition conservation — every partition of the final topological job's
// output available — holds only when every injected failure has been
// detected and recovered (pendingDetect == 0): a failure still inside its
// detection window legally leaves the chain complete with partitions the
// master has not noticed losing. Earlier DAG sinks are exempt: a surviving
// branch's sink may be legitimately unrecoverable without anyone asking
// for it. Sessions of more than one tenant skip conservation: a failure
// another tenant's schedule drives after this tenant finished may take
// its output with it, and nobody recovers a finished tenant.
func (d *Driver) checkInvariants() error {
	aliveSet := make(map[int]bool, d.clus.NumAlive())
	for _, id := range d.clus.Alive() {
		aliveSet[id] = true
	}
	for id := 0; id < d.clus.NumNodes(); id++ {
		if aliveSet[id] != d.fs.NodeAlive(id) {
			return fmt.Errorf("mapreduce: invariant: node %d cluster-alive=%v but dfs-alive=%v",
				id, aliveSet[id], d.fs.NodeAlive(id))
		}
		if d.failedNodes[id] == aliveSet[id] {
			return fmt.Errorf("mapreduce: invariant: node %d failed=%v yet alive=%v",
				id, d.failedNodes[id], aliveSet[id])
		}
	}
	if len(d.ctx.session.drivers) > 1 || d.pendingDetect > 0 {
		return nil
	}
	out := d.topo.Output(d.cfg.NumJobs)
	for p := 0; p < d.cfg.NumReducers; p++ {
		if !d.fs.PartitionAvailable(out, p) {
			return fmt.Errorf("mapreduce: invariant: final output %s/p%d unavailable at completion with all failures detected",
				out, p)
		}
	}
	return nil
}

// createInput lays out every external input file of the graph: one
// partition per node of InputPerNode bytes, InputRepl replicas (paper:
// triple-replicated). A chain has exactly one, the original input.
func (d *Driver) createInput() error {
	n := d.clus.NumNodes()
	all := d.clus.Alive()
	repl := d.cfg.InputRepl
	if repl > n {
		repl = n
	}
	// One reused replica buffer: SetPartition copies the set into its
	// blocks, so the loop plans n partitions with a single allocation.
	var buf []int
	sets := [][]int{nil}
	for j := range d.jobs {
		for _, name := range d.jobs[j].inputs {
			if d.topo.ProducerOf(name) != 0 || d.fs.File(name) != nil {
				continue // produced by a job, or already laid out
			}
			if _, err := d.fs.Create(name, n); err != nil {
				return err
			}
			for p := 0; p < n; p++ {
				buf = d.fs.PlanReplicasInto(buf[:0], p, repl, all)
				sets[0] = buf
				if _, err := d.fs.SetPartition(name, p, d.cfg.InputPerNode, sets); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (d *Driver) unrecoverable(err error) {
	if d.err == nil {
		d.err = err
	}
	if d.current != nil {
		d.current.cancel()
	}
	d.sim.Stop()
}

// outputRepl returns the DFS replication for a job's output under the
// configured strategy.
func (d *Driver) outputRepl(job int) int {
	if d.cfg.Mode == ModeRCMP {
		if d.cfg.HybridEveryK > 0 {
			return core.ReplicationForJob(job, d.cfg.HybridEveryK, d.cfg.HybridRepl)
		}
		return 1
	}
	return d.cfg.OutputRepl
}

// newRun assembles the shared parts of any job run and registers
// injections (tenant 0's only: a failure kills a node for everyone, so
// tenant 0's schedule is the cluster's). The previous run — always done or
// cancelled by the time a new one starts — goes back to the context's free
// lists here.
func (d *Driver) newRun(job int, kind metrics.RunKind) *jobRun {
	if d.current != nil {
		d.ctx.recycleRun(d.current)
		d.current = nil
	}
	d.runCounter++
	r := d.ctx.allocRun()
	r.d = d
	r.job = job
	r.kind = kind
	r.runIndex = d.runCounter
	r.inputs = d.jobs[job-1].inputs
	r.outputFile = d.jobs[job-1].output
	r.repl = d.outputRepl(job)
	r.scatter = d.cfg.ScatterOnly && kind == metrics.RunRecompute
	s := &d.ctx.session
	r.slots = &s.slots
	r.aggOut = grow(r.aggOut, d.clus.NumNodes())
	if d == s.drivers[0] {
		for _, inj := range d.cfg.Failures {
			if inj.AtRun == d.runCounter {
				inj := inj // copied only for the injections that fire
				d.sim.After(inj.After, func() {
					// A multi-node injection kills its whole batch at one
					// simulated instant, the way an outage day loses machines
					// together; injectFailure itself refuses to take the last
					// alive node.
					s.injectFailure(inj.Node)
					for extra := 1; extra < inj.Count; extra++ {
						s.injectFailure(-1)
					}
				})
			}
		}
	}
	d.current = r
	return r
}

// startInitial launches a full run of a graph job: a mapper per input
// block over every input file, every reducer, fresh output file.
func (d *Driver) startInitial(job int) {
	kind := metrics.RunInitial
	if d.recovering {
		kind = metrics.RunRestart
	}
	// Discard any partial output from an interrupted earlier attempt.
	out := d.jobs[job-1].output
	d.fs.Delete(out)
	if _, err := d.fs.Create(out, d.cfg.NumReducers); err != nil {
		d.unrecoverable(err)
		return
	}
	r := d.newRun(job, kind)
	idx := 0
	for i, name := range r.inputs {
		in := d.fs.File(name)
		if in == nil {
			d.unrecoverable(fmt.Errorf("job %d input %q missing", job, name))
			return
		}
		for _, p := range in.Partitions {
			for b, blk := range p.Blocks {
				mt := d.ctx.allocMap()
				mt.run = r
				mt.index = idx
				mt.in = in
				mt.inIdx = i
				mt.part = p.Index
				mt.block = b
				mt.inputBytes = blk.Size
				mt.outBytes = int64(float64(blk.Size) * d.cfg.MapOutputRatio)
				mt.node = -1
				r.maps = append(r.maps, mt)
				idx++
			}
		}
	}
	for i := 0; i < d.cfg.NumReducers; i++ {
		rt := d.ctx.allocRed()
		rt.run = r
		rt.reducer = i
		rt.split = 0
		rt.splits = 1
		rt.node = -1
		r.reduces = append(r.reduces, rt)
	}
	r.onComplete = func() { d.initialRunDone(r) }
	r.begin()
}

// initialRunDone records lineage for a completed full run and advances the
// graph frontier.
func (d *Driver) initialRunDone(r *jobRun) {
	rec := d.ctx.allocJobRec()
	rec.ID = r.job
	rec.Name = d.jobs[r.job-1].name
	rec.InputFile = r.inputs[0]
	if len(r.inputs) > 1 {
		rec.InputFiles = r.inputs
	}
	rec.OutputFile = r.outputFile
	rec.Splittable = true
	rec.Completed = true
	if cap(rec.Mappers) < len(r.maps) {
		rec.Mappers = make([]lineage.MapperMeta, 0, len(r.maps))
	}
	if cap(rec.Reducers) < len(r.reduces) {
		rec.Reducers = make([]lineage.ReducerMeta, 0, len(r.reduces))
	}
	for _, mt := range r.maps {
		node := mt.node
		if d.cfg.Mode != ModeRCMP {
			node = -1 // Hadoop does not persist map outputs across jobs
		}
		rec.Mappers = append(rec.Mappers, lineage.MapperMeta{
			Index:          mt.index,
			InFile:         mt.inIdx,
			InputPartition: mt.part,
			InputBlock:     mt.block,
			InputBytes:     mt.inputBytes,
			OutputBytes:    mt.outBytes,
			Node:           node,
		})
	}
	// One backing array for every reducer's single-node location set,
	// full-capacity sub-slices so a later SetReducerOutput swap can never
	// alias a neighbour.
	nodes := d.ctx.allocNodeBuf(len(r.reduces))
	for i, rt := range r.reduces {
		nodes[i] = rt.node
		rec.Reducers = append(rec.Reducers, lineage.ReducerMeta{
			Index:       rt.reducer,
			OutputBytes: rt.outBytes,
			Nodes:       nodes[i : i+1 : i+1],
		})
	}
	if err := d.ch.AppendRecord(rec); err != nil {
		d.unrecoverable(err)
		return
	}
	// A completed hybrid checkpoint bounds every future cascade through its
	// ancestry; reclaim the storage the bound makes unreachable
	// (Section IV-C), sparing whatever a surviving branch still reads.
	if d.cfg.ReclaimAtCheckpoints && d.outputRepl(r.job) > 1 {
		if rcl, err := core.GraphReclaimableBefore(d.ch, d.topo, r.job); err == nil {
			core.ApplyReclamation(d.ch, rcl)
			for _, f := range rcl.Files {
				d.fs.Delete(f)
			}
		}
	}
	d.recovering = false
	d.frontier++
	if d.frontier > d.cfg.NumJobs {
		d.finished = true
		d.endTime = d.sim.Now()
		return
	}
	d.startInitial(d.frontier)
}

// startRecompute launches the partial re-execution of one plan step.
func (d *Driver) startRecompute(step core.JobStep) {
	r := d.newRun(step.Job, metrics.RunRecompute)
	rec := d.ch.Job(step.Job)

	// Resolve the job's input-file handles once; mapper tasks index into
	// them via their lineage InFile.
	inFiles := make([]*dfs.File, len(r.inputs))
	for i, name := range r.inputs {
		inFiles[i] = d.fs.File(name)
	}

	// Mapper tasks keep their original indices, the ones lineage knows.
	rerun := make(map[int]bool, len(step.Mappers))
	for _, mi := range step.Mappers {
		rerun[mi] = true
	}
	for _, m := range rec.Mappers {
		if rerun[m.Index] {
			mt := d.ctx.allocMap()
			mt.run = r
			mt.index = m.Index
			mt.in = inFiles[m.InFile]
			mt.inIdx = m.InFile
			mt.part = m.InputPartition
			mt.block = m.InputBlock
			mt.inputBytes = m.InputBytes
			mt.outBytes = m.OutputBytes
			mt.node = -1
			r.maps = append(r.maps, mt)
		} else {
			// Reused persisted output: a shuffle source with no map work.
			r.aggOut[m.Node] += float64(m.OutputBytes)
		}
	}
	for _, rr := range step.Reducers {
		for s := 0; s < rr.Splits; s++ {
			rt := d.ctx.allocRed()
			rt.run = r
			rt.reducer = rr.Reducer
			rt.split = s
			rt.splits = rr.Splits
			rt.node = -1
			r.reduces = append(r.reduces, rt)
		}
	}
	r.onComplete = func() { d.recomputeRunDone(r, step) }
	r.begin()
}

// recomputeRunDone folds the regenerated outputs back into lineage and
// proceeds with the recovery plan.
func (d *Driver) recomputeRunDone(r *jobRun, step core.JobStep) {
	for _, mt := range r.maps {
		d.ch.SetMapperOutput(r.job, mt.index, mt.node, mt.outBytes)
	}
	byReducer := make(map[int][]*reduceTask)
	for _, rt := range r.reduces {
		byReducer[rt.reducer] = append(byReducer[rt.reducer], rt)
	}
	for _, reducer := range sortedKeys(byReducer) {
		rts := byReducer[reducer]
		var nodes []int
		var bytes int64
		for _, rt := range rts {
			nodes = append(nodes, rt.node)
			bytes += rt.outBytes
		}
		d.ch.SetReducerOutput(r.job, reducer, nodes, bytes)
	}
	d.advanceRecovery()
}

// advanceRecovery runs the next plan step, or restarts the frontier job.
func (d *Driver) advanceRecovery() {
	if len(d.planQueue) > 0 {
		step := d.planQueue[0]
		d.planQueue = d.planQueue[1:]
		d.startRecompute(step)
		return
	}
	d.startInitial(d.frontier) // kind=restart while recovering
}

// onDetect is the master noticing a dead node.
func (d *Driver) onDetect(node int) {
	if d.pendingDetect > 0 {
		d.pendingDetect--
	}
	if d.finished || d.err != nil {
		return
	}
	if d.cfg.Mode == ModeHadoop {
		// Replication permitting, recovery is within-job. Data loss that
		// touches any of the running job's input files cannot be recovered
		// from.
		if d.current != nil && !d.current.done {
			for _, name := range d.current.inputs {
				in := d.fs.File(name)
				for _, p := range in.Partitions {
					if p.Written() && !d.fs.PartitionAvailable(name, p.Index) {
						d.unrecoverable(fmt.Errorf("hadoop: input %s/p%d lost; replication %d insufficient",
							name, p.Index, d.cfg.OutputRepl))
						return
					}
				}
			}
			d.current.handleDetection(node)
		}
		return
	}

	// RCMP: any irreversible loss cancels the running job; the planner
	// plans a minimal cascade over ALL damage seen so far. A detection that
	// arrives while a previous recovery is in progress simply re-plans.
	if d.current != nil && !d.current.done {
		d.current.cancel()
	}
	plan, err := core.BuildGraphPlan(d.ch, d.topo, d.fs, d.frontier, d.failedNodes, core.Options{
		Split:            d.cfg.Split,
		SplitRatio:       d.cfg.SplitRatio,
		AliveNodes:       d.clus.NumAlive(),
		NoMapOutputReuse: d.cfg.NoMapOutputReuse,
	})
	if err != nil {
		d.unrecoverable(err)
		return
	}
	// Invariant check on the plan as built, before ForceRecomputeMappers
	// pads it: every stepped partition must actually be unavailable and,
	// unless NoMapOutputReuse re-runs every mapper by policy, every re-run
	// mapper justified by loss or split invalidation.
	if err := core.CheckPlan(d.ch, d.fs, d.failedNodes, plan, !d.cfg.NoMapOutputReuse); err != nil {
		d.unrecoverable(err)
		return
	}
	// Split regenerations crossing into a surviving branch invalidate that
	// branch's persisted map outputs (Figure 5 across file edges); mark
	// them so a later recovery re-executes those mappers. Never fires on
	// chains.
	for _, ref := range plan.Invalidated {
		d.ch.InvalidateMapperOutput(ref.Job, ref.Mapper)
	}
	if d.cfg.ForceRecomputeMappers > 0 {
		for i := range plan.Steps {
			d.padStepMappers(&plan.Steps[i])
		}
	}
	if d.cfg.PlanObserver != nil {
		d.cfg.PlanObserver(d.frontier, plan, d.ch)
	}
	d.recovering = true
	d.planQueue = plan.Steps
	d.advanceRecovery()
}

// padStepMappers grows a step's mapper set to ForceRecomputeMappers entries
// (the Figure 14 wave-count knob), drawing extra mappers in index order.
func (d *Driver) padStepMappers(step *core.JobStep) {
	want := d.cfg.ForceRecomputeMappers
	have := make(map[int]bool, len(step.Mappers))
	for _, m := range step.Mappers {
		have[m] = true
	}
	rec := d.ch.Job(step.Job)
	for _, m := range rec.Mappers {
		if len(step.Mappers) >= want {
			break
		}
		if !have[m.Index] {
			step.Mappers = append(step.Mappers, m.Index)
			have[m.Index] = true
		}
	}
}
