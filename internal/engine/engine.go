// Package engine is a functional (data-plane) MapReduce engine: it really
// executes map and reduce UDFs over key-value records on in-memory "nodes",
// persists task outputs the way RCMP does, injects node failures, recovers
// with the shared recomputation planner, and lets tests verify that the
// recovered chain output is exactly the failure-free output.
//
// The simulator (internal/mapreduce) answers the paper's performance
// questions; this engine answers its correctness questions — in particular
// that reducer splitting plus the split-invalidation rule neither drops nor
// duplicates a single record (the Figure 5 subtlety), across any failure
// schedule the planner accepts.
package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"rcmp/internal/core"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/middleware"
	"rcmp/internal/workload"
)

// Config sizes a functional chain execution.
type Config struct {
	Nodes           int
	NumReducers     int
	Jobs            int
	RecordsPerNode  int
	RecordsPerBlock int
	InputRepl       int
	Seed            int64

	// Split / SplitRatio control reducer splitting during recomputation.
	Split      bool
	SplitRatio int

	// HybridEveryK / HybridRepl enable the hybrid replication policy.
	HybridEveryK int
	HybridRepl   int

	// Parallelism bounds concurrent task execution (0 = GOMAXPROCS).
	Parallelism int

	// Failures are injected immediately before the named jobs start.
	Failures []Failure
}

// Failure kills a node just before job Before starts (the interrupted-job
// semantics: the paper's RCMP discards the running job's partial work and
// restarts it, so failing at the job boundary exercises the same recovery).
type Failure struct {
	Before int // 1-based chain job about to run
	Node   int
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Jobs <= 0 || c.NumReducers <= 0:
		return fmt.Errorf("engine: need positive nodes/jobs/reducers, got %d/%d/%d", c.Nodes, c.Jobs, c.NumReducers)
	case c.RecordsPerNode <= 0:
		return fmt.Errorf("engine: RecordsPerNode=%d", c.RecordsPerNode)
	}
	for _, f := range c.Failures {
		if f.Before < 1 || f.Before > c.Jobs {
			return fmt.Errorf("engine: failure before job %d outside chain", f.Before)
		}
		if f.Node < 0 || f.Node >= c.Nodes {
			return fmt.Errorf("engine: failure node %d outside cluster", f.Node)
		}
	}
	return nil
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.RecordsPerBlock == 0 {
		out.RecordsPerBlock = 50
	}
	if out.InputRepl == 0 {
		out.InputRepl = 3
	}
	if out.Parallelism == 0 {
		out.Parallelism = runtime.GOMAXPROCS(0)
	}
	if out.HybridEveryK > 0 && out.HybridRepl == 0 {
		out.HybridRepl = 2
	}
	return out
}

// buckets is one mapper's output: one record list per reducer.
type buckets [][]workload.Record

// Engine executes one chain: it runs what its core.Cursor hands out and
// injects the configured failures at job boundaries.
type Engine struct {
	cfg    Config
	fs     *dfs.FS
	cur    core.Cursor
	failed map[int]bool

	// content holds partition payloads by file; availability is governed by
	// the DFS metadata (a partition whose replicas are all on failed nodes
	// is unreadable even though the test process still holds the bytes).
	content map[string][][]workload.Record

	// mapOut persists mapper outputs across jobs: job -> mapper index.
	mapOut map[int]map[int]buckets

	// Stats observable by tests.
	RecomputedMappers  int
	RecomputedReducers int
	RecoveryEpisodes   int
}

// New builds an engine; the input file is generated deterministically from
// the seed.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	topo, err := core.LinearTopology(cfg.Jobs)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		fs:  dfs.New(int64(cfg.RecordsPerBlock)),
		cur: core.NewCursor(topo, core.Policy{
			Options: core.Options{Split: cfg.Split, SplitRatio: cfg.SplitRatio},
		}),
		failed:  make(map[int]bool),
		content: make(map[string][][]workload.Record),
		mapOut:  make(map[int]map[int]buckets),
	}
	_, input, _ := middleware.ChainNames(1)
	if _, err := e.fs.Create(input, cfg.Nodes); err != nil {
		return nil, err
	}
	repl := cfg.InputRepl
	if repl > cfg.Nodes {
		repl = cfg.Nodes
	}
	parts := make([][]workload.Record, cfg.Nodes)
	for p := 0; p < cfg.Nodes; p++ {
		parts[p] = workload.Generate(cfg.RecordsPerNode, cfg.Seed+int64(p))
		sets := [][]int{e.fs.PlanReplicas(p, repl, e.alive())}
		if _, err := e.fs.SetPartition(input, p, int64(len(parts[p])), sets); err != nil {
			return nil, err
		}
	}
	e.content[input] = parts
	return e, nil
}

func (e *Engine) alive() []int {
	var out []int
	for n := 0; n < e.cfg.Nodes; n++ {
		if !e.failed[n] {
			out = append(out, n)
		}
	}
	return out
}

// Run executes the chain, injecting configured failures and recovering from
// them, and returns the first error (a correctness violation or an
// unrecoverable loss).
func (e *Engine) Run() error {
	for !e.cur.Finished() {
		for _, f := range e.cfg.Failures {
			if f.Before == e.cur.Frontier() {
				if err := e.failAndRecover(f.Node); err != nil {
					return err
				}
			}
		}
		if err := e.runNext(); err != nil {
			return err
		}
	}
	return nil
}

// failAndRecover kills a node at a job boundary and runs the recovery
// cascade, so that the frontier job can (re)start with its full input
// available. Each failure is its own recovery episode.
func (e *Engine) failAndRecover(node int) error {
	if e.failed[node] {
		return nil
	}
	if len(e.alive()) <= 1 {
		return fmt.Errorf("engine: cannot fail node %d: last one standing", node)
	}
	e.failed[node] = true
	e.fs.FailNode(node)
	e.RecoveryEpisodes++
	plan, err := e.cur.Plan(e.fs, e.failed, len(e.alive()))
	if err != nil {
		return err
	}
	e.cur.Recover(plan)
	for e.cur.Queued() > 0 {
		if err := e.runNext(); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) repl(job int) int {
	return core.ReplicationForJob(job, e.cfg.HybridEveryK, e.cfg.HybridRepl)
}

// mapperPlacement returns the node that executes a mapper: the first live
// replica holder of its input block (data-local, like the schedulers in
// both the paper's clusters and our simulator).
func (e *Engine) mapperPlacement(inFile string, part, block int) (int, error) {
	locs := e.fs.BlockLocations(inFile, part)
	if block >= len(locs) || len(locs[block]) == 0 {
		return -1, fmt.Errorf("engine: %s/p%d/b%d unreadable", inFile, part, block)
	}
	return locs[block][0], nil
}

// runMapper executes one mapper over its input block and returns its output
// buckets. Pure: safe to run concurrently.
func (e *Engine) runMapper(inFile string, part, block int) (buckets, error) {
	rows := e.content[inFile][part]
	lo := min(block*e.cfg.RecordsPerBlock, len(rows))
	hi := min(lo+e.cfg.RecordsPerBlock, len(rows))
	out, _, err := workload.MapBlock(rows[lo:hi], e.cfg.NumReducers)
	if err != nil {
		return nil, fmt.Errorf("engine: %s/p%d/b%d: %w", inFile, part, block, err)
	}
	return out, nil
}

// runReducer executes reducer `red` (split `split` of `splits`) over the
// given mapper outputs, in deterministic key order.
func (e *Engine) runReducer(mapOuts []buckets, red, split, splits int) ([]workload.Record, error) {
	sources := make([][]workload.Record, len(mapOuts))
	for i, mo := range mapOuts {
		sources[i] = workload.SplitSlice(mo[red], split, splits)
	}
	out, _, err := workload.ReduceGroups(sources)
	if err != nil {
		return nil, fmt.Errorf("engine: reducer %d.%d: %w", red, split, err)
	}
	return out, nil
}

// parallelDo runs fn(i) for i in [0,n) on a bounded worker pool and returns
// the first error.
func (e *Engine) parallelDo(n int, fn func(i int) error) error {
	sem := make(chan struct{}, e.cfg.Parallelism)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runNext executes the cursor's next run and commits it. A full run (an
// initial run, or a restart after failure) re-executes every mapper over
// the input as laid out now and every reducer whole; a step re-runs the
// tasks its plan names.
func (e *Engine) runNext() error {
	run, ok := e.cur.Next()
	if !ok {
		return fmt.Errorf("engine: all %d jobs already ran", e.cfg.Jobs)
	}
	rec := e.cur.Lineage().Job(run.Job)
	var rerun []int
	var reducers []core.ReducerRun
	if run.Step != nil {
		rerun, reducers = run.Step.Mappers, run.Step.Reducers
	} else {
		_, inFile, outFile := middleware.ChainNames(run.Job)
		in := e.fs.File(inFile)
		if in == nil {
			return fmt.Errorf("engine: job %d input %q missing", run.Job, inFile)
		}
		rec = &lineage.JobRecord{InputFile: inFile, OutputFile: outFile}
		for _, p := range in.Partitions {
			for b := range p.Blocks {
				rerun = append(rerun, len(rec.Mappers))
				rec.Mappers = append(rec.Mappers, lineage.MapperMeta{
					Index: len(rec.Mappers), InputPartition: p.Index, InputBlock: b,
					InputBytes: int64(e.cfg.RecordsPerBlock),
				})
			}
		}
		for r := 0; r < e.cfg.NumReducers; r++ {
			reducers = append(reducers, core.ReducerRun{Reducer: r, Splits: 1})
		}
		e.fs.Delete(outFile)
		if _, err := e.fs.Create(outFile, e.cfg.NumReducers); err != nil {
			return err
		}
		e.content[outFile] = make([][]workload.Record, e.cfg.NumReducers)
		e.mapOut[run.Job] = make(map[int]buckets, len(rerun))
	}
	mappers, written, err := e.execute(run.Job, rec, rerun, reducers)
	if err != nil {
		return err
	}
	if _, err := e.cur.Done(run, &lineage.JobRecord{Mappers: mappers, Reducers: written}); err != nil {
		return err
	}
	if run.Step != nil {
		e.RecomputedMappers += len(mappers)
		e.RecomputedReducers += len(reducers)
	}
	return nil
}

// execute runs one job run, full or step alike: the mappers of rec's table
// listed in rerun, then the reducer runs over every mapper output of the
// job — re-run ones fresh, the rest reused from e.mapOut. It persists the
// new mapper outputs and writes the reducer outputs' content and DFS
// metadata, and returns the executed tasks in lineage terms for the caller
// to commit.
func (e *Engine) execute(job int, rec *lineage.JobRecord, rerun []int, reducers []core.ReducerRun) ([]lineage.MapperMeta, []lineage.ReducerMeta, error) {
	// Workers fill per-index slots; the shared maps are updated only after
	// the wait (concurrent map writes are unsafe even on distinct keys).
	outs := make([]buckets, len(rerun))
	ran := make([]lineage.MapperMeta, len(rerun))
	err := e.parallelDo(len(rerun), func(i int) error {
		m := rec.Mappers[rerun[i]]
		node, err := e.mapperPlacement(rec.InputFile, m.InputPartition, m.InputBlock)
		if err != nil {
			return err
		}
		outs[i], err = e.runMapper(rec.InputFile, m.InputPartition, m.InputBlock)
		m.Node, m.OutputBytes = node, 0
		for _, b := range outs[i] {
			m.OutputBytes += int64(len(b))
		}
		ran[i] = m
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	fresh := make([]bool, len(rec.Mappers))
	for i, mi := range rerun {
		e.mapOut[job][mi] = outs[i]
		fresh[mi] = true
	}

	// Shuffle sources: every mapper output of the job (reused + recomputed).
	sources := make([]buckets, len(rec.Mappers))
	for i, m := range rec.Mappers {
		mo, ok := e.mapOut[job][i]
		if !ok {
			return nil, nil, fmt.Errorf("engine: job %d mapper %d output missing during recompute", job, i)
		}
		// A reused output must be on a live node; the planner guarantees it.
		if !fresh[i] && e.failed[m.Node] {
			return nil, nil, fmt.Errorf("engine: job %d reuses mapper %d output from failed node %d", job, i, m.Node)
		}
		sources[i] = mo
	}

	type task struct{ reducer, split, splits int }
	var tasks []task
	for _, rr := range reducers {
		for s := 0; s < rr.Splits; s++ {
			tasks = append(tasks, task{rr.Reducer, s, rr.Splits})
		}
	}
	redOut := make([][]workload.Record, len(tasks))
	if err := e.parallelDo(len(tasks), func(i int) error {
		var err error
		redOut[i], err = e.runReducer(sources, tasks[i].reducer, tasks[i].split, tasks[i].splits)
		return err
	}); err != nil {
		return nil, nil, err
	}

	// Each split writes its own blocks; the partition's content is their
	// concatenation.
	alive := e.alive()
	repl := e.repl(job)
	var written []lineage.ReducerMeta
	for _, rr := range reducers {
		parts := redOut[:rr.Splits]
		redOut = redOut[rr.Splits:]
		merged := slices.Concat(parts...)
		var sets [][]int
		var nodes []int
		for s := range parts {
			node := alive[(rr.Reducer+s)%len(alive)]
			nodes = append(nodes, node)
			sets = append(sets, e.fs.PlanReplicas(node, repl, alive))
		}
		if _, err := e.fs.SetPartition(rec.OutputFile, rr.Reducer, int64(len(merged)), sets); err != nil {
			return nil, nil, err
		}
		e.content[rec.OutputFile][rr.Reducer] = merged
		written = append(written, lineage.ReducerMeta{Index: rr.Reducer, OutputBytes: int64(len(merged)), Nodes: nodes})
	}
	return ran, written, nil
}

// Evict releases persisted map outputs under storage pressure, using the
// wave-granularity policy of Section IV-C: at least needRecords' worth of
// persisted output is dropped, cheapest expected recomputation cost first.
// Later recoveries re-execute the evicted mappers; the chain output is
// unchanged.
func (e *Engine) Evict(needRecords int64) error {
	plan, err := core.PlanEviction(e.cur.Lineage(), needRecords, len(e.alive()))
	if err != nil {
		return err
	}
	core.ApplyEviction(e.cur.Lineage(), plan)
	for _, w := range plan.Waves {
		for _, mi := range w.Mappers {
			delete(e.mapOut[w.Job], mi)
		}
	}
	return nil
}

// ReclaimThrough applies the checkpoint-reclamation rule of Section IV-C:
// the caller asserts job `checkpoint` completed with a replicated output,
// and everything older becomes unreachable for recovery and is released.
func (e *Engine) ReclaimThrough(checkpoint int) error {
	r, err := core.ReclaimableBefore(e.cur.Lineage(), checkpoint)
	if err != nil {
		return err
	}
	core.ApplyReclamation(e.cur.Lineage(), r)
	for _, j := range r.MapOutputJobs {
		e.mapOut[j] = make(map[int]buckets)
	}
	for _, f := range r.Files {
		e.fs.Delete(f)
		delete(e.content, f)
	}
	return nil
}

// OutputDigests fingerprints the final job's output partitions. The XOR of
// per-record MD5s and the byte sum are order-independent, so a split
// recomputation (which reorders records within a partition) compares equal
// to the failure-free run exactly when the record multisets match.
func (e *Engine) OutputDigests() ([]workload.Digest, error) {
	_, _, outFile := middleware.ChainNames(e.cfg.Jobs)
	parts, ok := e.content[outFile]
	if !ok {
		return nil, fmt.Errorf("engine: chain output %q missing (chain not run?)", outFile)
	}
	out := make([]workload.Digest, len(parts))
	for p, rows := range parts {
		out[p] = workload.DigestRecords(rows)
	}
	return out, nil
}

// Chain exposes the lineage for tests.
func (e *Engine) Chain() *lineage.Chain { return e.cur.Lineage() }

// FS exposes the DFS metadata for tests.
func (e *Engine) FS() *dfs.FS { return e.fs }
