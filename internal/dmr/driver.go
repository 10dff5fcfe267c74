package dmr

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rcmp/internal/core"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/metrics"
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

	// OnRunStart, when non-nil, fires as each run is submitted, with the
	// 1-based run counter (matching the simulator's Injection.AtRun
	// numbering), the job, and the run kind. The cross-validation harness
	// schedules its failure injections from it.
	OnRunStart func(run, job int, kind metrics.RunKind)
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
// submits the recomputation cascade. The decisions are its core.Cursor's;
// the driver runs what the cursor hands out on the master and reports the
// deaths the master detects.
type Driver struct {
	m   *Master
	cfg ChainConfig
	cur core.Cursor

	// handled tracks worker deaths already folded into a recovery plan.
	handled map[int]bool
	// relayout lists the input partitions of the next plan step whose block
	// layout the previous step changed (see resyncMappers).
	relayout map[int]bool

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
	topo, err := core.LinearTopology(cfg.Jobs)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(alive)
	return &Driver{
		m: m, cfg: cfg, handled: make(map[int]bool),
		cur: core.NewCursor(topo, core.Policy{
			Options:      core.Options{Split: cfg.Split, SplitRatio: cfg.SplitRatio, NoMapOutputReuse: cfg.NoMapOutputReuse},
			HybridEveryK: cfg.HybridEveryK, HybridRepl: cfg.HybridRepl,
			ReclaimAtCheckpoints: cfg.ReclaimAtCheckpoints,
		}),
	}, nil
}

// RunSpan is one submitted job run in the driver's RunLog.
type RunSpan struct {
	Run        int             // 0-based submission index
	Job        int             // chain job ID
	Kind       metrics.RunKind // initial, restart or recompute
	Start, End time.Time
	Err        bool // the run ended in an error (typically data loss)
}

// Chain exposes the recorded lineage.
func (d *Driver) Chain() *lineage.Chain { return d.cur.Lineage() }

// Episodes returns every recovery plan the driver's cursor adopted, in
// order (RecoveryEpisodes counts fewer when a loss folds into an open
// recovery).
func (d *Driver) Episodes() []core.Episode { return d.cur.Episodes() }

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
	for !d.cur.Finished() {
		// Deaths between jobs, or during a recovery's steps, may have
		// destroyed data the next full run needs; fold them in before
		// submitting it.
		if d.cur.Queued() == 0 && d.unhandledFailures() {
			if err := d.recover(); err != nil {
				return err
			}
			continue
		}
		run, _ := d.cur.Next()
		if err := d.runOne(run); err != nil {
			var loss *DataLossError
			if !errors.As(err, &loss) {
				return err
			}
			// Cancelled by a death: re-plan, then restart or resume.
			if err := d.recover(); err != nil {
				return err
			}
		}
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

// recover plans the recomputation cascade over every death detected so far
// and queues it ahead of the frontier job's (re)start. Deaths found while
// an earlier plan is still being carried out fold into its recovery
// episode: a single pass services any number of accumulated data-loss
// events (Section IV-A).
func (d *Driver) recover() error {
	for id := range d.m.FailedNodes() {
		d.handled[id] = true
	}
	alive := d.m.AliveWorkers()
	if len(alive) == 0 {
		return errors.New("dmr: all workers dead")
	}
	// Read the failed set before entering WithFS: FailedNodes takes the
	// registry lock, which the monitor holds while it takes fsMu to mark
	// data lost — taking them in the opposite order here deadlocks.
	failed := d.m.FailedNodes()
	var plan *core.Plan
	if err := d.m.WithFS(func(fs *dfs.FS) (err error) {
		plan, err = d.cur.Plan(fs, failed, len(alive))
		return err
	}); err != nil {
		return err
	}
	d.relayout = nil
	if d.cur.Recover(plan) {
		d.RecoveryEpisodes++
	}
	return nil
}

// runOne submits one run the cursor handed out and commits it. A full run
// then releases what a completed checkpoint made reclaimable (Section
// IV-C) and calls AfterJob.
//
// Between the steps of a plan the driver tracks partitions whose
// regeneration changed the block layout of the next job's input: a split
// regeneration replaces the carved canonical blocks with one block per
// split, and a whole regeneration over a previously-split layout restores
// the canonical carving. Either way the next job's mapper table is
// re-derived from the new layout and all its readers re-run — the
// block-level generalization of the paper's Figure 5 split-invalidation
// rule.
func (d *Driver) runOne(run core.Run) error {
	var rc *RecomputeSpec
	var next map[int]bool
	if step := run.Step; step != nil {
		rec := d.cur.Lineage().Job(step.Job)
		mappers := step.Mappers
		if len(d.relayout) > 0 {
			var err error
			if mappers, err = d.resyncMappers(rec, mappers, d.relayout); err != nil {
				return err
			}
		}
		// Decide the next step's relayout set before the reducer metas
		// change: it depends on whether the OLD layout was split-written.
		next = make(map[int]bool)
		for _, rr := range step.Reducers {
			prevSplit := rr.Reducer < len(rec.Reducers) && len(rec.Reducers[rr.Reducer].Nodes) > 1
			if rr.Splits > 1 || prevSplit {
				next[rr.Reducer] = true
			}
		}
		rc = &RecomputeSpec{
			Mappers:  mappers,
			Reducers: step.Reducers,
			Table:    append([]lineage.MapperMeta(nil), rec.Mappers...),
			Scatter:  d.cfg.ScatterOnly,
		}
	}
	rep, err := d.submit(run, rc)
	if err != nil {
		return err
	}
	rcl, err := d.cur.Done(run, &lineage.JobRecord{Mappers: rep.Mappers, Reducers: rep.Reducers})
	if err != nil {
		return err
	}
	if run.Step != nil {
		d.RecomputedMappers += len(rep.Mappers)
		d.RecomputedReducers += len(run.Step.Reducers)
		d.relayout = next
		return nil
	}
	if len(rcl.MapOutputJobs) > 0 {
		d.m.broadcast(DropMapOutputsReq{Jobs: rcl.MapOutputJobs})
	}
	for _, f := range rcl.Files {
		d.m.dropFileEverywhere(f)
	}
	if d.cfg.AfterJob != nil {
		d.cfg.AfterJob(run.Job)
	}
	return nil
}

// submit logs one job run and runs it on the master: the recomputation
// step rc tags, or a full run when rc is nil.
func (d *Driver) submit(run core.Run, rc *RecomputeSpec) (*JobReport, error) {
	_, in, out := middleware.ChainNames(run.Job)
	d.RunLog = append(d.RunLog, RunSpan{Run: d.StartedRuns, Job: run.Job, Kind: run.Kind, Start: time.Now()})
	span := &d.RunLog[len(d.RunLog)-1]
	d.StartedRuns++
	if d.cfg.OnRunStart != nil {
		d.cfg.OnRunStart(d.StartedRuns, run.Job, run.Kind)
	}
	rep, err := d.m.RunJob(JobSpec{
		ID:           run.Job,
		InFile:       in,
		OutFile:      out,
		NumReducers:  d.cfg.NumReducers,
		OutputRepl:   d.repl(run.Job),
		CarveRecords: d.m.BlockRecords(),
		Recompute:    rc,
		Speculation:  d.cfg.Speculation,
	})
	span.End, span.Err = time.Now(), err != nil
	if err != nil {
		return nil, err
	}
	d.RemoteReads += rep.RemoteReads
	d.SpeculativeLaunched += rep.SpeculativeLaunched
	d.SpeculativeWasted += rep.SpeculativeWasted
	return rep, nil
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

// Evict releases at least needBytes of persisted map outputs across the
// cluster, using the wave-granularity, cheapest-expected-recomputation
// policy of Section IV-C. Later recoveries transparently re-run the
// evicted mappers. Call between jobs (not while a run is active).
func (d *Driver) Evict(needBytes int64) error {
	alive := d.m.AliveWorkers()
	slots := d.m.SlotsPerWorker()
	ch := d.cur.Lineage()
	plan, err := core.PlanEviction(ch, needBytes, len(alive)*slots)
	if err != nil {
		return err
	}
	var refs []MapOutRef
	for _, w := range plan.Waves {
		rec := ch.Job(w.Job)
		for _, mi := range w.Mappers {
			m := rec.Mappers[mi]
			refs = append(refs, MapOutRef{Job: w.Job, Part: m.InputPartition, Block: m.InputBlock})
		}
	}
	core.ApplyEviction(ch, plan)
	if len(refs) > 0 {
		d.m.broadcast(EvictMapOutputsReq{Refs: refs})
	}
	return nil
}

// OutputDigests fingerprints the final job's output partitions, reading
// blocks from their live replicas. The partitions are digested
// concurrently, as many at once as one reducer fetches from; an error is
// the lowest failing partition's.
func (d *Driver) OutputDigests() ([]workload.Digest, error) {
	_, _, out := middleware.ChainNames(d.cfg.Jobs)
	exists := false
	_ = d.m.WithFS(func(fs *dfs.FS) error { exists = fs.File(out) != nil; return nil })
	if !exists {
		return nil, fmt.Errorf("dmr: chain output %q missing (chain not run?)", out)
	}
	digests := make([]workload.Digest, d.cfg.NumReducers)
	err := runTasks(len(digests), shuffleParallelCopies, func(p int) (err error) {
		digests[p], err = d.m.PartitionDigest(out, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return digests, nil
}
