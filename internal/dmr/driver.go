package dmr

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rcmp/internal/core"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/middleware"
	"rcmp/internal/workload"
)

// ChainConfig describes a multi-job chain run on the distributed runtime.
type ChainConfig struct {
	Jobs        int
	NumReducers int

	// InputParts is the number of input partitions (default: one per live
	// worker); RecordsPerPartition sizes each.
	InputParts          int
	RecordsPerPartition int

	InputRepl  int // replication of the original input (default 3)
	OutputRepl int // replication of job outputs (RCMP: 1, the default)

	// HybridEveryK/HybridRepl enable the Section IV-C hybrid policy; only
	// meaningful with OutputRepl == 1.
	HybridEveryK int
	HybridRepl   int
	// ReclaimAtCheckpoints releases persisted outputs made unreachable by a
	// completed hybrid checkpoint.
	ReclaimAtCheckpoints bool

	// Split enables reducer splitting during recomputation; SplitRatio is
	// the split count (0 = one split per surviving worker).
	Split      bool
	SplitRatio int

	// ScatterOnly is the Section IV-B2 alternative: recomputed reducers
	// run whole but spread their output blocks over all live workers,
	// defusing the next job's map-phase hot-spot without dividing the
	// reduce work. Mutually exclusive with Split.
	ScatterOnly bool

	// NoMapOutputReuse re-runs every mapper of a recomputed job instead of
	// reusing persisted outputs (the Section V-D isolation knob).
	NoMapOutputReuse bool

	// Speculation duplicates straggling mappers on another worker
	// (Section II) once they run core.SpeculationFactor times the mean
	// completed-mapper duration.
	Speculation bool

	Seed int64

	// AfterJob, when non-nil, runs after each successfully committed chain
	// job. Tests and examples inject failures from it (the paper's "15 s
	// after the start of job X" points collapse to job boundaries here; the
	// interrupted-job path is exercised with asynchronous kills).
	AfterJob func(job int)

	// PlanObserver, when non-nil, observes every recovery plan immediately
	// after it is built and invariant-checked, before any of its steps run.
	// The cross-validation harness captures recovery decisions through it;
	// the chain is the driver's live lineage and must not be mutated.
	PlanObserver func(frontier int, plan *core.Plan, ch *lineage.Chain)

	// OnRunStart, when non-nil, fires as each run is submitted, with the
	// 1-based run counter (matching the simulator's Injection.AtRun
	// numbering), the job, and the run kind. The cross-validation harness
	// schedules its failure injections from it.
	OnRunStart func(run, job int, kind string)
}

func (c *ChainConfig) withDefaults(aliveWorkers int) ChainConfig {
	out := *c
	if out.InputParts == 0 {
		out.InputParts = aliveWorkers
	}
	if out.RecordsPerPartition == 0 {
		out.RecordsPerPartition = 200
	}
	if out.InputRepl == 0 {
		out.InputRepl = 3
	}
	if out.OutputRepl == 0 {
		out.OutputRepl = 1
	}
	if out.HybridEveryK > 0 && out.HybridRepl == 0 {
		out.HybridRepl = 2
	}
	return out
}

// Validate reports configuration errors.
func (c *ChainConfig) Validate() error {
	switch {
	case c.Jobs <= 0:
		return fmt.Errorf("dmr: Jobs=%d", c.Jobs)
	case c.NumReducers <= 0:
		return fmt.Errorf("dmr: NumReducers=%d", c.NumReducers)
	case c.ReclaimAtCheckpoints && c.HybridEveryK <= 0:
		return errors.New("dmr: ReclaimAtCheckpoints requires HybridEveryK")
	case c.OutputRepl > 1 && c.HybridEveryK > 0:
		return errors.New("dmr: hybrid policy is for OutputRepl == 1 chains")
	case c.Split && c.ScatterOnly:
		return errors.New("dmr: Split and ScatterOnly are mutually exclusive")
	}
	return nil
}

// Driver is the paper's middleware (Section IV-A): it knows the job
// dependencies, submits jobs one at a time, and on data loss infers and
// submits the recomputation cascade.
type Driver struct {
	m   *Master
	cfg ChainConfig
	ch  *lineage.Chain

	// handled tracks worker deaths already folded into a recovery plan.
	handled map[int]bool
	// attempted tracks jobs already submitted once, so a re-submission
	// after data loss is logged as a restart rather than an initial run.
	attempted map[int]bool

	// RunLog records every submitted run in order with wall-clock spans —
	// the runtime-side analogue of the simulator's per-run stats, consumed
	// by the cross-validation harness for phase-time ratios.
	RunLog []RunSpan

	// Stats observable by tests and examples.
	StartedRuns         int
	RecoveryEpisodes    int
	RecomputedMappers   int
	RecomputedReducers  int
	RemoteReads         int
	SpeculativeLaunched int
	SpeculativeWasted   int
}

// NewDriver builds a driver for a master whose workers have registered.
func NewDriver(m *Master, cfg ChainConfig) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alive := len(m.AliveWorkers())
	if alive == 0 {
		return nil, errors.New("dmr: no live workers")
	}
	return &Driver{
		m: m, cfg: cfg.withDefaults(alive), ch: lineage.NewChain(),
		handled: make(map[int]bool), attempted: make(map[int]bool),
	}, nil
}

// RunSpan is one submitted job run in the driver's RunLog.
type RunSpan struct {
	Run        int    // 0-based submission index
	Job        int    // chain job ID
	Kind       string // "initial", "restart", or "recompute"
	Start, End time.Time
	Err        bool // the run ended in an error (typically data loss)
}

// logRun appends a RunLog entry for a run being submitted and returns the
// closer that stamps its end.
func (d *Driver) logRun(job int, kind string) func(err error) {
	idx := len(d.RunLog)
	d.RunLog = append(d.RunLog, RunSpan{Run: d.StartedRuns, Job: job, Kind: kind, Start: time.Now()})
	d.StartedRuns++
	if d.cfg.OnRunStart != nil {
		d.cfg.OnRunStart(d.StartedRuns, job, kind)
	}
	return func(err error) {
		d.RunLog[idx].End = time.Now()
		d.RunLog[idx].Err = err != nil
	}
}

// Chain exposes the recorded lineage.
func (d *Driver) Chain() *lineage.Chain { return d.ch }

func (d *Driver) repl(job int) int {
	if d.cfg.OutputRepl > 1 {
		return d.cfg.OutputRepl
	}
	return core.ReplicationForJob(job, d.cfg.HybridEveryK, d.cfg.HybridRepl)
}

// LoadInput generates and loads the replicated computation input.
func (d *Driver) LoadInput() error {
	parts := make([][]workload.Record, d.cfg.InputParts)
	for p := range parts {
		parts[p] = workload.Generate(d.cfg.RecordsPerPartition, d.cfg.Seed+int64(p))
	}
	_, input, _ := middleware.ChainNames(1)
	return d.m.LoadFile(input, parts, d.cfg.InputRepl)
}

// RunChain executes the whole chain, recovering from any worker deaths the
// master detects along the way. Call LoadInput first.
func (d *Driver) RunChain() error {
	job := 1
	for job <= d.cfg.Jobs {
		// Deaths between jobs (or during a previous recovery) may have
		// destroyed data this job needs; fold them in before submitting.
		if d.unhandledFailures() {
			if err := d.recover(job); err != nil {
				return err
			}
		}
		rep, err := d.runFull(job)
		if err != nil {
			var loss *DataLossError
			if errors.As(err, &loss) {
				if err := d.recover(job); err != nil {
					return err
				}
				continue // restart the interrupted job
			}
			return err
		}
		if err := d.appendJob(job, rep); err != nil {
			return err
		}
		if d.cfg.ReclaimAtCheckpoints && d.repl(job) > 1 {
			if err := d.reclaimThrough(job); err != nil {
				return err
			}
		}
		if d.cfg.AfterJob != nil {
			d.cfg.AfterJob(job)
		}
		job++
	}
	return nil
}

func (d *Driver) unhandledFailures() bool {
	for id := range d.m.FailedNodes() {
		if !d.handled[id] {
			return true
		}
	}
	return false
}

func (d *Driver) markFailuresHandled() {
	for id := range d.m.FailedNodes() {
		d.handled[id] = true
	}
}

// runFull submits one full job run (initial or restart).
func (d *Driver) runFull(job int) (*JobReport, error) {
	kind := "initial"
	if d.attempted[job] {
		kind = "restart"
	}
	d.attempted[job] = true
	return d.submit(job, kind, nil)
}

// submit runs one job of the chain: the recomputation step rc tags, or a
// full run when rc is nil.
func (d *Driver) submit(job int, kind string, rc *RecomputeSpec) (*JobReport, error) {
	_, in, out := middleware.ChainNames(job)
	done := d.logRun(job, kind)
	rep, err := d.m.RunJob(JobSpec{
		ID:           job,
		InFile:       in,
		OutFile:      out,
		NumReducers:  d.cfg.NumReducers,
		OutputRepl:   d.repl(job),
		CarveRecords: d.m.BlockRecords(),
		Recompute:    rc,
		Speculation:  d.cfg.Speculation,
	})
	done(err)
	if err != nil {
		return nil, err
	}
	d.RemoteReads += rep.RemoteReads
	d.SpeculativeLaunched += rep.SpeculativeLaunched
	d.SpeculativeWasted += rep.SpeculativeWasted
	return rep, nil
}

// appendJob appends the completed job to the lineage.
func (d *Driver) appendJob(job int, rep *JobReport) error {
	name, in, out := middleware.ChainNames(job)
	return d.ch.Append(&lineage.JobRecord{
		ID: job, Name: string(name),
		InputFile: in, OutputFile: out,
		Splittable: true, Completed: true,
		Mappers: rep.Mappers, Reducers: rep.Reducers,
	})
}

// recover plans and executes the recomputation cascade so that job
// `frontier` can (re)start with its input complete. New failures during
// recovery simply rebuild the plan — a single pass services any number of
// accumulated data-loss events (Section IV-A).
func (d *Driver) recover(frontier int) error {
	d.RecoveryEpisodes++
	for {
		d.markFailuresHandled()
		alive := d.m.AliveWorkers()
		if len(alive) == 0 {
			return errors.New("dmr: all workers dead")
		}
		// Read the failed set before entering WithFS: FailedNodes takes the
		// registry lock, which the monitor holds while it takes fsMu to mark
		// data lost — taking them in the opposite order here deadlocks.
		failed := d.m.FailedNodes()
		var plan *core.Plan
		err := d.m.WithFS(func(fs *dfs.FS) error {
			var err error
			plan, err = core.BuildPlan(d.ch, fs, frontier, failed, core.Options{
				Split:            d.cfg.Split,
				SplitRatio:       d.cfg.SplitRatio,
				AliveNodes:       len(alive),
				NoMapOutputReuse: d.cfg.NoMapOutputReuse,
			})
			if err != nil {
				return err
			}
			// Under NoMapOutputReuse every mapper re-runs by policy, so
			// mapper justification is not checkable.
			return core.CheckPlan(d.ch, fs, failed, plan, !d.cfg.NoMapOutputReuse)
		})
		if err != nil {
			return err
		}
		if d.cfg.PlanObserver != nil {
			d.cfg.PlanObserver(frontier, plan, d.ch)
		}
		if err := d.runPlanSteps(plan); err != nil {
			var loss *DataLossError
			if errors.As(err, &loss) {
				continue // nested failure: fold in and re-plan
			}
			return err
		}
		if !d.unhandledFailures() {
			return nil
		}
	}
}

// runPlanSteps executes the plan's partial job re-executions in order,
// updating the lineage as outputs land on new nodes.
//
// Between steps it tracks partitions whose regeneration changed the block
// layout of the next job's input: a split regeneration replaces the carved
// canonical blocks with one block per split, and a whole regeneration over
// a previously-split layout restores the canonical carving. Either way the
// next job's mapper table is re-derived from the new layout and all its
// readers re-run — the block-level generalization of the paper's Figure 5
// split-invalidation rule.
func (d *Driver) runPlanSteps(plan *core.Plan) error {
	var relayout map[int]bool // input partitions of the upcoming step with a changed layout
	for _, step := range plan.Steps {
		rec := d.ch.Job(step.Job)
		if rec == nil {
			return fmt.Errorf("dmr: plan step for unknown job %d", step.Job)
		}
		mappers := step.Mappers
		if len(relayout) > 0 {
			var err error
			mappers, err = d.resyncMappers(rec, step.Mappers, relayout)
			if err != nil {
				return err
			}
		}
		// Decide next step's relayout set before the reducer metas change:
		// it depends on whether the OLD layout was split-written.
		next := make(map[int]bool)
		for _, rr := range step.Reducers {
			prevSplit := rr.Reducer < len(rec.Reducers) && len(rec.Reducers[rr.Reducer].Nodes) > 1
			if rr.Splits > 1 || prevSplit {
				next[rr.Reducer] = true
			}
		}

		rep, err := d.submit(step.Job, "recompute", &RecomputeSpec{
			Mappers:  mappers,
			Reducers: step.Reducers,
			Table:    append([]lineage.MapperMeta(nil), rec.Mappers...),
			Scatter:  d.cfg.ScatterOnly,
		})
		if err != nil {
			return err
		}
		for _, mm := range rep.Mappers {
			d.ch.SetMapperOutput(step.Job, mm.Index, mm.Node, mm.OutputBytes)
		}
		for _, rm := range rep.Reducers {
			d.ch.SetReducerOutput(step.Job, rm.Index, rm.Nodes, rm.OutputBytes)
		}
		d.RecomputedMappers += len(mappers)
		d.RecomputedReducers += len(step.Reducers)
		relayout = next
	}
	return nil
}

// resyncMappers rewrites a job's mapper table after its input partitions in
// `relayout` changed block layout: the stale descriptors of those readers
// are replaced by one fresh mapper per current block, all of which must
// re-run. Kept mappers are renumbered densely (persisted outputs are keyed
// by input block, so renumbering is safe). Returns the updated re-run set.
func (d *Driver) resyncMappers(rec *lineage.JobRecord, stepMappers []int, relayout map[int]bool) ([]int, error) {
	rerunOld := make(map[int]bool, len(stepMappers))
	for _, mi := range stepMappers {
		rerunOld[mi] = true
	}
	layout := make(map[int][]int64) // partition -> current block sizes
	if err := d.m.WithFS(func(fs *dfs.FS) error {
		f := fs.File(rec.InputFile)
		if f == nil {
			return fmt.Errorf("dmr: resync: input %q missing", rec.InputFile)
		}
		for p := range relayout {
			if p < 0 || p >= len(f.Partitions) {
				return fmt.Errorf("dmr: resync: %q has no partition %d", rec.InputFile, p)
			}
			var sizes []int64
			for _, b := range f.Partitions[p].Blocks {
				sizes = append(sizes, b.Size)
			}
			layout[p] = sizes
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var table []lineage.MapperMeta
	var rerun []int
	for _, m := range rec.Mappers {
		if relayout[m.InputPartition] {
			continue // replaced below
		}
		nm := m
		nm.Index = len(table)
		if rerunOld[m.Index] {
			rerun = append(rerun, nm.Index)
		}
		table = append(table, nm)
	}
	parts := make([]int, 0, len(relayout))
	for p := range relayout {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		for b, sz := range layout[p] {
			nm := lineage.MapperMeta{Index: len(table), InputPartition: p, InputBlock: b, InputBytes: sz, Node: -1}
			rerun = append(rerun, nm.Index)
			table = append(table, nm)
		}
	}
	rec.Mappers = table
	sort.Ints(rerun)
	return rerun, nil
}

// reclaimThrough applies checkpoint reclamation (Section IV-C) after job
// `checkpoint` completed with a replicated output.
func (d *Driver) reclaimThrough(checkpoint int) error {
	r, err := core.ReclaimableBefore(d.ch, checkpoint)
	if err != nil {
		return err
	}
	core.ApplyReclamation(d.ch, r)
	if len(r.MapOutputJobs) > 0 {
		d.m.broadcast(DropMapOutputsReq{Jobs: r.MapOutputJobs})
	}
	for _, f := range r.Files {
		d.m.dropFileEverywhere(f)
	}
	return nil
}

// Evict releases at least needBytes of persisted map outputs across the
// cluster, using the wave-granularity, cheapest-expected-recomputation
// policy of Section IV-C. Later recoveries transparently re-run the
// evicted mappers. Call between jobs (not while a run is active).
func (d *Driver) Evict(needBytes int64) error {
	alive := d.m.AliveWorkers()
	slots := d.m.SlotsPerWorker()
	plan, err := core.PlanEviction(d.ch, needBytes, len(alive)*slots)
	if err != nil {
		return err
	}
	var refs []MapOutRef
	for _, w := range plan.Waves {
		rec := d.ch.Job(w.Job)
		for _, mi := range w.Mappers {
			m := rec.Mappers[mi]
			refs = append(refs, MapOutRef{Job: w.Job, Part: m.InputPartition, Block: m.InputBlock})
		}
	}
	core.ApplyEviction(d.ch, plan)
	if len(refs) > 0 {
		d.m.broadcast(EvictMapOutputsReq{Refs: refs})
	}
	return nil
}

// OutputDigests fingerprints the final job's output partitions, reading
// blocks from their live replicas.
func (d *Driver) OutputDigests() ([]workload.Digest, error) {
	_, _, out := middleware.ChainNames(d.cfg.Jobs)
	exists := false
	_ = d.m.WithFS(func(fs *dfs.FS) error { exists = fs.File(out) != nil; return nil })
	if !exists {
		return nil, fmt.Errorf("dmr: chain output %q missing (chain not run?)", out)
	}
	digests := make([]workload.Digest, d.cfg.NumReducers)
	for p := range digests {
		dg, err := d.m.PartitionDigest(out, p)
		if err != nil {
			return nil, err
		}
		digests[p] = dg
	}
	return digests, nil
}
