package mapreduce

import (
	"fmt"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/metrics"
	"rcmp/internal/middleware"
)

// Driver executes one job graph on a simulated cluster under a chosen
// failure-resilience strategy (the paper's middleware + master together):
// one tenant of its context's session. Chains run through the same driver
// as the linear degenerate case. The middleware's decisions — submission
// order, recovery plans, run kinds, lineage commits and checkpoint
// reclamation — are its core.Cursor's; the driver executes the runs the
// cursor hands out and reports losses to it.
type Driver struct {
	ctx  *Context
	sim  *des.Simulator
	clus *cluster.Cluster
	fs   *dfs.FS
	rec  *metrics.Recorder
	cfg  ChainConfig
	topo *core.Topology
	cur  core.Cursor
	agg  bool // aggregated shuffle tier resolved for this chain

	runCounter  int
	failedNodes map[int]bool
	// pendingDetect counts injected failures whose detection timer has not
	// fired yet. A chain may legally complete inside that window with lost
	// partitions nobody noticed, so the completion-time conservation
	// invariant only applies when it is zero.
	pendingDetect int
	current       *jobRun
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
// RunGraph, lowered over middleware.Chain(n) (the historical chain file
// names).
func (ctx *Context) RunChain(cfg ChainConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ctx.RunGraph(GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)})
}

// newDriver assembles a driver on a freshly reset context. The config must
// be defaulted and validated, with NumJobs equal to the topology's job
// count.
func newDriver(ctx *Context, cfg ChainConfig, topo *core.Topology) *Driver {
	return &Driver{
		ctx:  ctx,
		sim:  ctx.sim,
		clus: ctx.clus,
		fs:   ctx.fs,
		rec:  &metrics.Recorder{},
		cfg:  cfg,
		topo: topo,
		cur: core.NewCursor(topo, core.Policy{
			Options:      core.Options{Split: cfg.Split, SplitRatio: cfg.SplitRatio, NoMapOutputReuse: cfg.NoMapOutputReuse},
			HybridEveryK: cfg.HybridEveryK, HybridRepl: cfg.HybridRepl,
			ReclaimAtCheckpoints: cfg.ReclaimAtCheckpoints,
		}),
		failedNodes: make(map[int]bool),
	}
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
	if !d.cur.Finished() {
		return nil, fmt.Errorf("mapreduce: simulation drained before chain completed (job %d)", d.cur.Frontier())
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
		Episodes:            d.cur.Episodes(),
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
	// One reused replica buffer: SetPartition copies the set into its
	// blocks, so the loop plans n partitions with a single allocation.
	var buf []int
	sets := [][]int{nil}
	for j := 1; j <= d.topo.NumJobs(); j++ {
		for _, name := range d.topo.Inputs(j) {
			if d.topo.ProducerOf(name) != 0 || d.fs.File(name) != nil {
				continue // produced by a job, or already laid out
			}
			if _, err := d.fs.Create(name, n); err != nil {
				return err
			}
			repl := d.fileRepl(name)
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
// configured strategy: RCMP writes one replica except at hybrid
// checkpoints, Hadoop OutputRepl.
func (d *Driver) outputRepl(job int) int {
	if d.cfg.Mode == ModeRCMP {
		return core.ReplicationForJob(job, d.cfg.HybridEveryK, d.cfg.HybridRepl)
	}
	return d.cfg.OutputRepl
}

// fileRepl returns the replication a file is written with: InputRepl,
// capped at the node count, for an external input, its producer's output
// replication otherwise.
func (d *Driver) fileRepl(name string) int {
	if p := d.topo.ProducerOf(name); p > 0 {
		return d.outputRepl(p)
	}
	return min(d.cfg.InputRepl, d.clus.NumNodes())
}

// newRun assembles the shared parts of any job run and registers
// injections (tenant 0's only: a failure kills a node for everyone, so
// tenant 0's schedule is the cluster's). The previous run — always done or
// cancelled by the time a new one starts — goes back to the context's free
// lists here.
func (d *Driver) newRun(run core.Run) *jobRun {
	if d.current != nil {
		d.ctx.recycleRun(d.current)
		d.current = nil
	}
	d.runCounter++
	r := d.ctx.allocRun()
	r.d = d
	r.job = run.Job
	r.kind = run.Kind
	r.step = run.Step
	r.runIndex = d.runCounter
	r.inputs = d.topo.Inputs(run.Job)
	r.outputFile = d.topo.Output(run.Job)
	r.repl = d.outputRepl(run.Job)
	r.scatter = d.cfg.ScatterOnly && run.Step != nil
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

// next starts the cursor's next run, or stamps the graph's end.
func (d *Driver) next() {
	run, ok := d.cur.Next()
	if !ok {
		d.endTime = d.sim.Now()
		return
	}
	d.start(run)
}

// start launches a run as map and reduce tasks. A full run discards any
// output of an interrupted earlier attempt and re-runs every task: a
// mapper per block of every input file as laid out now, every reducer
// whole. A step re-runs the mappers it names from their lineage entries,
// shuffles every other mapper's persisted output from where it lies, and
// runs its reducers split as planned.
func (d *Driver) start(run core.Run) {
	if run.Step == nil {
		out := d.topo.Output(run.Job)
		d.fs.Delete(out)
		if _, err := d.fs.Create(out, d.cfg.NumReducers); err != nil {
			d.unrecoverable(err)
			return
		}
	}
	r := d.newRun(run)
	if run.Step == nil {
		idx := 0
		for i, name := range r.inputs {
			in := d.fs.File(name)
			if in == nil {
				d.unrecoverable(fmt.Errorf("job %d input %q missing", run.Job, name))
				return
			}
			for _, p := range in.Partitions {
				for b, blk := range p.Blocks {
					d.addMap(r, idx, in, i, p.Index, b, blk.Size, int64(float64(blk.Size)*d.cfg.MapOutputRatio))
					idx++
				}
			}
		}
		for i := 0; i < d.cfg.NumReducers; i++ {
			d.addReduce(r, i, 0, 1)
		}
		r.begin()
		return
	}
	// Resolve the job's input-file handles once; mapper tasks index into
	// them via their lineage InFile, and keep the indices lineage knows.
	inFiles := make([]*dfs.File, len(r.inputs))
	for i, name := range r.inputs {
		inFiles[i] = d.fs.File(name)
	}
	rerun := make(map[int]bool, len(run.Step.Mappers))
	for _, mi := range run.Step.Mappers {
		rerun[mi] = true
	}
	for _, m := range d.cur.Lineage().Job(run.Job).Mappers {
		if rerun[m.Index] {
			d.addMap(r, m.Index, inFiles[m.InFile], m.InFile, m.InputPartition, m.InputBlock, m.InputBytes, m.OutputBytes)
		} else {
			// Reused persisted output: a shuffle source with no map work.
			r.aggOut[m.Node] += float64(m.OutputBytes)
		}
	}
	for _, rr := range run.Step.Reducers {
		for s := 0; s < rr.Splits; s++ {
			d.addReduce(r, rr.Reducer, s, rr.Splits)
		}
	}
	r.begin()
}

// addMap adds a pending mapper task to run r.
func (d *Driver) addMap(r *jobRun, index int, in *dfs.File, inIdx, part, block int, inputBytes, outBytes int64) {
	mt := d.ctx.allocMap()
	mt.run = r
	mt.index = index
	mt.in = in
	mt.inIdx = inIdx
	mt.part = part
	mt.block = block
	mt.inputBytes = inputBytes
	mt.outBytes = outBytes
	mt.node = -1
	r.maps = append(r.maps, mt)
}

// addReduce adds a pending reduce task (split of splits) to run r.
func (d *Driver) addReduce(r *jobRun, reducer, split, splits int) {
	rt := d.ctx.allocRed()
	rt.run = r
	rt.reducer = reducer
	rt.split = split
	rt.splits = splits
	rt.node = -1
	r.reduces = append(r.reduces, rt)
}

// runDone commits a completed run to the lineage through the cursor,
// deletes the files a completed checkpoint made reclaimable, and starts
// the next run. A full run's tasks fill a pooled lineage record the
// lineage keeps; a step's fill the context's scratch record, which the
// cursor copies from.
func (d *Driver) runDone(r *jobRun) {
	rec, nodes := &d.ctx.stepRec, d.ctx.stepNodes
	if r.step == nil {
		rec, nodes = d.ctx.allocJobRec(), d.ctx.allocNodeBuf(len(r.reduces))
	} else {
		nodes = grow(nodes, len(r.reduces))
		d.ctx.stepNodes = nodes
	}
	rec.Mappers, rec.Reducers = rec.Mappers[:0], rec.Reducers[:0]
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
	// A reducer's split tasks sit together in reducer order. Their nodes
	// share one backing array, each reducer a full-capacity sub-slice, so
	// a later SetReducerOutput swap can never alias a neighbour.
	for i := 0; i < len(r.reduces); {
		k, bytes := i, int64(0)
		for ; k < len(r.reduces) && r.reduces[k].reducer == r.reduces[i].reducer; k++ {
			nodes[k] = r.reduces[k].node
			bytes += r.reduces[k].outBytes
		}
		rec.Reducers = append(rec.Reducers, lineage.ReducerMeta{
			Index:       r.reduces[i].reducer,
			OutputBytes: bytes,
			Nodes:       nodes[i:k:k],
		})
		i = k
	}
	rcl, err := d.cur.Done(core.Run{Job: r.job, Kind: r.kind, Step: r.step}, rec)
	if err != nil {
		d.unrecoverable(err)
		return
	}
	for _, f := range rcl.Files {
		d.fs.Delete(f)
	}
	d.next()
}

// onDetect is the master noticing a dead node.
func (d *Driver) onDetect(node int) {
	if d.pendingDetect > 0 {
		d.pendingDetect--
	}
	if d.cur.Finished() || d.err != nil {
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
						d.unrecoverable(HadoopInputLost(name, p.Index, d.fileRepl(name)))
						return
					}
				}
			}
			d.current.handleDetection(node)
		}
		return
	}

	// RCMP: any irreversible loss cancels the running job; the cursor plans
	// a minimal cascade over ALL damage seen so far. A detection that
	// arrives while a previous recovery is in progress simply re-plans.
	if d.current != nil && !d.current.done {
		d.current.cancel()
	}
	plan, err := d.cur.Plan(d.fs, d.failedNodes, d.clus.NumAlive())
	if err != nil {
		d.unrecoverable(err)
		return
	}
	// The plan was checked as built; ForceRecomputeMappers pads it after.
	if d.cfg.ForceRecomputeMappers > 0 {
		for i := range plan.Steps {
			d.padStepMappers(&plan.Steps[i])
		}
	}
	d.cur.Recover(plan)
	d.next()
}

// HadoopInputLost is the error that ends a Hadoop-mode run: partition part
// of a file the running job reads is lost, and within-job recovery cannot
// regenerate it. repl is the file's replication.
func HadoopInputLost(file string, part, repl int) error {
	return fmt.Errorf("hadoop: input %s/p%d lost; replication %d insufficient", file, part, repl)
}

// padStepMappers grows a step's mapper set to ForceRecomputeMappers entries
// (the Figure 14 wave-count knob), drawing extra mappers in index order.
func (d *Driver) padStepMappers(step *core.JobStep) {
	want := d.cfg.ForceRecomputeMappers
	have := make(map[int]bool, len(step.Mappers))
	for _, m := range step.Mappers {
		have[m] = true
	}
	rec := d.cur.Lineage().Job(step.Job)
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
