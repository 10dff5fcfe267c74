// graphplan.go holds the recovery cascade — the one recovery planner every
// backend runs — over arbitrary job DAGs. It decides which completed jobs
// recompute (the middleware's inference, Section IV-A) and narrows each to
// partitions and tasks (Section IV-B): which output partitions each
// recomputed job must regenerate, which mappers must re-execute, and which
// surviving persisted outputs a split recomputation invalidates. A linear
// chain is the degenerate DAG: BuildPlan (planner.go) plans over
// LinearTopology(max(ch.Len(), failedJob)) and ReclaimableBefore
// (reclaim.go) over LinearTopology(checkpoint), so a chain's lineage must
// use middleware.ChainNames's file names, as every backend's does. Every
// workload — chain or DAG, simulated or real — is planned by this one path
// (planner_test.go is the chain oracle).
package core

import (
	"fmt"
	"sort"

	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/middleware"
)

// Topology adapts a validated middleware job graph to the 1-based
// topological indexing the lineage records and the engines use: job i is
// the i-th job in the graph's deterministic topological order. It is the
// one job order, producer map and external-input rule (ProducerOf == 0)
// that the simulator, the analytic twin, dmr, the engine and the planner
// share.
type Topology struct {
	g       *middleware.Graph
	order   []middleware.JobID
	pos     map[middleware.JobID]int
	inputs  [][]string
	outputs []string
	// producer maps a file to its producing job's topological position
	// (0 = external input).
	producer map[string]int
}

// NewTopology indexes a validated graph. Its error is always nil:
// middleware.NewGraph has checked everything a topology relies on, and the
// Job type makes every job single-output.
func NewTopology(g *middleware.Graph) (*Topology, error) {
	order := g.Order()
	t := &Topology{
		g:        g,
		order:    order,
		pos:      make(map[middleware.JobID]int, len(order)),
		inputs:   make([][]string, 0, len(order)),
		outputs:  make([]string, 0, len(order)),
		producer: make(map[string]int, len(order)),
	}
	for i, id := range order {
		j, _ := g.Job(id)
		t.pos[id] = i + 1
		t.inputs = append(t.inputs, j.Inputs)
		t.outputs = append(t.outputs, j.Output)
		t.producer[j.Output] = i + 1
	}
	return t, nil
}

// TopologyOf validates a job list as a DAG (middleware.NewGraph) and
// indexes it.
func TopologyOf(jobs []middleware.Job) (*Topology, error) {
	g, err := middleware.NewGraph(jobs)
	if err != nil {
		return nil, err
	}
	return NewTopology(g)
}

// NumJobs returns the job count.
func (t *Topology) NumJobs() int { return len(t.order) }

// Name returns the job's graph ID as a string.
func (t *Topology) Name(j int) string { return string(t.order[j-1]) }

// Inputs returns the input files of job j. The slice is shared; callers
// must not mutate it.
func (t *Topology) Inputs(j int) []string { return t.inputs[j-1] }

// Output returns the single output file of job j.
func (t *Topology) Output(j int) string { return t.outputs[j-1] }

// ProducerOf returns the topological position of the job producing a file,
// or 0 for external inputs.
func (t *Topology) ProducerOf(file string) int { return t.producer[file] }

// ConsumersOf appends the topological positions of the jobs reading a
// file, ascending, to buf.
func (t *Topology) ConsumersOf(file string, buf []int) []int {
	for _, id := range t.g.Consumers(file) {
		buf = append(buf, t.pos[id])
	}
	sort.Ints(buf)
	return buf
}

// BuildGraphPlan computes the minimal recovery plan after data loss on an
// arbitrary job DAG. failedJob is the 1-based topological position of the
// job that was running when the loss was detected; jobs before it in the
// order have completed (the engine submits in topological order), jobs at
// or after it are pending. failed is the accumulated set of failed nodes:
// a plan built while earlier failures are still being repaired folds in all
// their damage (Section IV-A).
//
// Demand is seeded from the files the cancelled frontier and every pending
// job will re-read in full — a pending job may consume a long-completed
// file, which never happens on a chain — and walks the completed jobs in
// reverse topological order, extending through re-executed mappers' lost
// inputs. A completed job recomputes only if some partition of its output
// is demanded, so damage nothing will read is left alone. On a linear
// chain the steps form a contiguous range ending at failedJob-1.
func BuildGraphPlan(ch *lineage.Chain, topo *Topology, fs *dfs.FS, failedJob int, failed map[int]bool, opts Options) (*Plan, error) {
	if failedJob < 1 || failedJob > ch.Len()+1 {
		return nil, fmt.Errorf("core: failed job %d outside chain of %d jobs", failedJob, ch.Len())
	}
	n := topo.NumJobs()
	plan := &Plan{RestartJob: failedJob}

	// need[j] is the set of output partitions of completed job j that must
	// be regenerated. The frontier restart and every pending job re-read
	// their inputs in full, so each lost partition of a completed input
	// seeds the cascade (on a chain only the frontier's previous job
	// qualifies), and a lost partition of an external input is fatal.
	need := make(map[int]map[int]bool)
	addNeed := func(job, part int) {
		if need[job] == nil {
			need[job] = make(map[int]bool)
		}
		need[job][part] = true
	}
	for c := failedJob; c <= n; c++ {
		for _, in := range topo.Inputs(c) {
			p := topo.ProducerOf(in)
			if p == 0 {
				if f := fs.File(in); f != nil {
					for _, part := range f.Partitions {
						if !fs.PartitionAvailable(in, part.Index) {
							return nil, LostInputError(part.Index, in)
						}
					}
				}
				continue
			}
			if p >= failedJob {
				continue // produced by a pending job
			}
			prev := ch.Job(p)
			if !prev.Completed {
				return nil, fmt.Errorf("core: job %d ran before its input job %d completed", c, prev.ID)
			}
			for _, r := range prev.Reducers {
				if !fs.PartitionAvailable(prev.OutputFile, r.Index) {
					addNeed(p, r.Index)
				}
			}
		}
	}

	// One pass in reverse topological order: demand only ever flows from a
	// consumer to a producer, i.e. to a smaller position.
	var steps []JobStep
	for j := failedJob - 1; j >= 1; j-- {
		parts := need[j]
		if len(parts) == 0 {
			continue // damage nobody demands
		}
		rec := ch.Job(j)
		step := JobStep{Job: j}
		for p := range parts {
			step.Reducers = append(step.Reducers, ReducerRun{Reducer: p, Splits: opts.splitsFor(rec)})
		}
		sort.Slice(step.Reducers, func(a, b int) bool { return step.Reducers[a].Reducer < step.Reducers[b].Reducer })

		if opts.NoMapOutputReuse {
			for _, m := range rec.Mappers {
				step.Mappers = append(step.Mappers, m.Index)
			}
		} else {
			step.Mappers = rec.UnavailableMappers(failed)
		}
		for _, mi := range step.Mappers {
			m := rec.Mappers[mi]
			in := rec.InputFileAt(m.InFile)
			if !fs.PartitionAvailable(in, m.InputPartition) {
				p := topo.ProducerOf(in)
				if p == 0 {
					return nil, LostInputError(m.InputPartition, in)
				}
				addNeed(p, m.InputPartition)
			}
		}
		steps = append(steps, step)
	}
	// Reverse into execution (ascending topological) order.
	for i, k := 0, len(steps)-1; i < k; i, k = i+1, k-1 {
		steps[i], steps[k] = steps[k], steps[i]
	}

	// Forward split-correctness pass, generalized over file edges: a
	// partition regenerated with >1 splits invalidates every persisted map
	// output computed from it, wherever the consumer sits in the DAG. A
	// consumer that is itself a step re-runs those mappers now; a completed
	// consumer outside the plan (a surviving branch) keeps running on its
	// surviving output but the stale mapper outputs must be invalidated for
	// any future recovery. The restart and pending jobs re-run all mappers
	// anyway.
	stepAt := make(map[int]*JobStep, len(steps))
	for i := range steps {
		stepAt[steps[i].Job] = &steps[i]
	}
	var consBuf []int
	for i := range steps {
		cur := &steps[i]
		splitParts := make(map[int]bool)
		for _, r := range cur.Reducers {
			if r.Splits > 1 {
				splitParts[r.Reducer] = true
			}
		}
		if len(splitParts) == 0 {
			continue
		}
		out := ch.Job(cur.Job).OutputFile
		consBuf = topo.ConsumersOf(out, consBuf[:0])
		for _, c := range consBuf {
			if c >= failedJob {
				continue
			}
			crec := ch.Job(c)
			if next := stepAt[c]; next != nil {
				already := make(map[int]bool, len(next.Mappers))
				for _, m := range next.Mappers {
					already[m] = true
				}
				for _, m := range crec.Mappers {
					if crec.InputFileAt(m.InFile) == out && splitParts[m.InputPartition] && !already[m.Index] {
						next.Mappers = append(next.Mappers, m.Index)
						next.SplitInvalidated = append(next.SplitInvalidated, m.Index)
					}
				}
				sort.Ints(next.Mappers)
				sort.Ints(next.SplitInvalidated)
				continue
			}
			for _, m := range crec.Mappers {
				if crec.InputFileAt(m.InFile) == out && splitParts[m.InputPartition] && m.Node >= 0 {
					plan.Invalidated = append(plan.Invalidated, MapperRef{Job: c, Mapper: m.Index})
				}
			}
		}
	}

	plan.Steps = steps
	return plan, nil
}

// LostInputError reports a lost partition of an external input. External
// inputs are the replicated original, which nothing can regenerate.
func LostInputError(part int, file string) error {
	return fmt.Errorf("core: original input partition %d of %q lost; computation unrecoverable", part, file)
}

// GraphReclaimableBefore computes what a checkpoint makes reclaimable on a
// DAG: a completed, replicated checkpoint bounds every future cascade
// through it, so the persisted artifacts of its ancestry can be dropped —
// but only where no surviving branch still reaches them. A proper
// ancestor's output file is reclaimable when every consumer of that file is
// itself an ancestor (or the checkpoint); its map outputs are reclaimable
// exactly when its file is (the checkpoint's own map outputs always are —
// its replicated output survives any single loss). On a linear chain every
// job up to the checkpoint is an ancestor with in-chain consumers, so all
// their map outputs and every file before the checkpoint's are reclaimable.
func GraphReclaimableBefore(ch *lineage.Chain, topo *Topology, checkpoint int) (Reclamation, error) {
	var out Reclamation
	cp := ch.Job(checkpoint)
	if cp == nil {
		return out, fmt.Errorf("core: checkpoint job %d not in lineage", checkpoint)
	}
	if !cp.Completed {
		return out, fmt.Errorf("core: checkpoint job %d has not completed", checkpoint)
	}
	anc := make([]bool, checkpoint+1)
	anc[checkpoint] = true
	for j := checkpoint; j >= 1; j-- {
		if !anc[j] {
			continue
		}
		for _, in := range topo.Inputs(j) {
			if p := topo.ProducerOf(in); p > 0 {
				anc[p] = true
			}
		}
	}
	var consBuf []int
	for j := 1; j <= checkpoint; j++ {
		if !anc[j] {
			continue
		}
		rec := ch.Job(j)
		reclaimFile := j < checkpoint
		if reclaimFile {
			consBuf = topo.ConsumersOf(rec.OutputFile, consBuf[:0])
			for _, c := range consBuf {
				if c > checkpoint || !anc[c] {
					reclaimFile = false
					break
				}
			}
		}
		if j != checkpoint && !reclaimFile {
			continue // a surviving branch still reads it; keep everything
		}
		persisted := false
		for _, m := range rec.Mappers {
			if m.Node >= 0 {
				persisted = true
				out.Bytes += m.OutputBytes
			}
		}
		if persisted {
			out.MapOutputJobs = append(out.MapOutputJobs, j)
		}
		if reclaimFile {
			out.Files = append(out.Files, rec.OutputFile)
		}
	}
	return out, nil
}
