// Package core implements RCMP's recomputation planning: given the lineage
// of a multi-job computation, the distributed file system's view of what
// data survived, and the set of failed nodes, it derives the minimum
// cascade of partial job re-executions that regenerates the lost data —
// and decides how to re-execute them (reducer splitting and its
// correctness constraints).
//
// This is the paper's primary contribution (Sections IV-A and IV-B):
//
//   - Only tasks whose persisted outputs were lost are re-executed; every
//     surviving mapper or reducer output is reused.
//   - Re-executed reducers may be split into finer-grained tasks so the few
//     recomputed tasks can use every surviving node and so their output is
//     spread over many disks, defusing the hot-spot that otherwise forms in
//     the next job's map phase.
//   - Splitting re-partitions a reducer's keys by hash, so any persisted map
//     output computed from a partition that is being regenerated by splits
//     is invalid and its mapper must re-run, even if that output survived
//     the failure (the Figure 5 subtlety).
package core

import (
	"fmt"
	"sort"
	"strconv"

	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/middleware"
)

// Options controls how recomputation runs are executed.
type Options struct {
	// Split enables reducer splitting during recomputation.
	Split bool
	// SplitRatio is the number of splits per recomputed reducer. Zero means
	// automatic: one split per surviving node (the paper's N-1 setting).
	SplitRatio int
	// AliveNodes is the number of surviving nodes, used by the automatic
	// split ratio and to cap explicit ratios.
	AliveNodes int
	// NoMapOutputReuse makes every stepped job re-execute its whole mapper
	// table instead of reusing persisted outputs (the Section V-D isolation
	// knob). The cascade then extends to every unavailable input partition
	// of those mappers, not just the ones reuse would have needed.
	NoMapOutputReuse bool
}

func (o Options) splitsFor(job *lineage.JobRecord) int {
	if !o.Split || !job.Splittable {
		return 1
	}
	k := o.SplitRatio
	if k <= 0 {
		k = o.AliveNodes
	}
	if k < 1 {
		k = 1
	}
	return k
}

// ReducerRun is one reducer to re-execute, in Splits parallel split tasks
// (1 = run whole). Split s of k processes the keys of the original
// partition whose hash maps to s modulo k.
type ReducerRun struct {
	Reducer int
	Splits  int
}

// JobStep is the partial re-execution of one job.
type JobStep struct {
	Job int
	// Mappers lists mapper indices to re-execute. It includes both mappers
	// whose persisted outputs were lost and mappers invalidated by the
	// split-correctness rule.
	Mappers []int
	// SplitInvalidated is the subset of Mappers re-run only because their
	// input partition is being regenerated by split reducers (their own
	// outputs survived). Kept separately for tests and accounting.
	SplitInvalidated []int
	// Reducers lists the reducer outputs to regenerate.
	Reducers []ReducerRun
}

// MapperRef names one mapper of one job.
type MapperRef struct {
	Job    int
	Mapper int
}

// Plan is a full recovery: the ordered partial re-executions, then a full
// restart of the job that was running when the failure hit.
type Plan struct {
	// Steps are partial job re-executions in ascending (execution) order.
	Steps []JobStep
	// RestartJob is the job to run again from scratch after the steps
	// complete (the job interrupted by the failure).
	RestartJob int
	// Invalidated lists persisted map outputs of completed jobs that do NOT
	// re-run in this plan but consumed a partition a split recomputation is
	// regenerating (the Figure 5 rule crossing into a surviving DAG branch).
	// The caller must mark them unusable in the lineage so a later recovery
	// re-executes those mappers. Always empty for linear chains: a chain
	// consumer of a stepped job is either itself a step or the restart.
	Invalidated []MapperRef
}

// TotalRecomputedTasks returns the number of re-executed mapper and reducer
// tasks across all steps (splits counted as their original reducer count).
func (p *Plan) TotalRecomputedTasks() (mappers, reducers int) {
	for _, s := range p.Steps {
		mappers += len(s.Mappers)
		reducers += len(s.Reducers)
	}
	return
}

// BuildPlan computes the minimal recovery plan after data loss.
//
// failedJob is the 1-based index of the job that was running (or about to
// run) when the loss was detected; jobs failedJob..end have not completed.
// failed is the set of all failed nodes so far — a plan built while earlier
// failures are still being repaired naturally folds in all accumulated
// damage, which is how RCMP services nested failures with a single
// recomputation pass (Section IV-A).
//
// The plan's steps form a contiguous range ending at failedJob-1: the
// cascade extends backwards exactly as far as lost data forces it to.
func BuildPlan(ch *lineage.Chain, fs *dfs.FS, failedJob int, failed map[int]bool, opts Options) (*Plan, error) {
	// The interrupted job has no lineage record yet (records are written on
	// completion), so failedJob may exceed the chain by exactly one.
	if failedJob < 1 || failedJob > ch.Len()+1 {
		return nil, fmt.Errorf("core: failed job %d outside chain of %d jobs", failedJob, ch.Len())
	}
	plan := &Plan{RestartJob: failedJob}

	// need[j] is the set of output partitions of job j that must be
	// regenerated. The restarted job needs its complete input, so every
	// lost partition of job failedJob-1's output seeds the cascade.
	need := make(map[int]map[int]bool)
	addNeed := func(job, part int) {
		if need[job] == nil {
			need[job] = make(map[int]bool)
		}
		need[job][part] = true
	}
	if failedJob > 1 {
		prev := ch.Job(failedJob - 1)
		if !prev.Completed {
			return nil, fmt.Errorf("core: job %d ran before its input job %d completed", failedJob, prev.ID)
		}
		for _, r := range prev.Reducers {
			if !fs.PartitionAvailable(prev.OutputFile, r.Index) {
				addNeed(prev.ID, r.Index)
			}
		}
	}

	// Backward pass: for each job that must regenerate output partitions,
	// its lost map outputs must be re-executed (recomputed reducers shuffle
	// from every mapper), and the re-executed mappers' lost input
	// partitions extend the cascade one job further back.
	var steps []JobStep
	for j := failedJob - 1; j >= 1; j-- {
		parts := need[j]
		if len(parts) == 0 {
			break // nothing upstream can be required: the cascade has bottomed out
		}
		rec := ch.Job(j)
		step := JobStep{Job: j}
		for p := range parts {
			step.Reducers = append(step.Reducers, ReducerRun{Reducer: p, Splits: opts.splitsFor(rec)})
		}
		sort.Slice(step.Reducers, func(a, b int) bool { return step.Reducers[a].Reducer < step.Reducers[b].Reducer })

		if opts.NoMapOutputReuse {
			step.Mappers = step.Mappers[:0]
			for _, m := range rec.Mappers {
				step.Mappers = append(step.Mappers, m.Index)
			}
		} else {
			step.Mappers = rec.UnavailableMappers(failed)
		}
		for _, mi := range step.Mappers {
			m := rec.Mappers[mi]
			if !fs.PartitionAvailable(rec.InputFile, m.InputPartition) {
				if j == 1 {
					// Job 1 reads the original (replicated) computation input;
					// if that is gone, no recomputation can recover.
					return nil, fmt.Errorf("core: original input partition %d of %q lost; computation unrecoverable",
						m.InputPartition, rec.InputFile)
				}
				addNeed(j-1, m.InputPartition)
			}
		}
		steps = append(steps, step)
	}
	// Reverse into execution (ascending) order.
	for i, k := 0, len(steps)-1; i < k; i, k = i+1, k-1 {
		steps[i], steps[k] = steps[k], steps[i]
	}

	// Forward pass: apply the split-correctness rule. If job j regenerates
	// partition p with >1 splits, every mapper of job j+1 that consumed p
	// must re-run even if its output survived; reusing it would duplicate
	// the keys hashed to other splits and drop the rest (Figure 5). The
	// restarted job re-runs all its mappers anyway, so only steps matter.
	for i := range steps {
		if i+1 >= len(steps) {
			break
		}
		cur, next := &steps[i], &steps[i+1]
		if next.Job != cur.Job+1 {
			return nil, fmt.Errorf("core: internal error: non-contiguous steps %d,%d", cur.Job, next.Job)
		}
		splitParts := make(map[int]bool)
		for _, r := range cur.Reducers {
			if r.Splits > 1 {
				splitParts[r.Reducer] = true
			}
		}
		if len(splitParts) == 0 {
			continue
		}
		already := make(map[int]bool, len(next.Mappers))
		for _, m := range next.Mappers {
			already[m] = true
		}
		nextRec := ch.Job(next.Job)
		for _, m := range nextRec.Mappers {
			if splitParts[m.InputPartition] && !already[m.Index] {
				next.Mappers = append(next.Mappers, m.Index)
				next.SplitInvalidated = append(next.SplitInvalidated, m.Index)
			}
		}
		sort.Ints(next.Mappers)
		sort.Ints(next.SplitInvalidated)
	}

	plan.Steps = steps
	return plan, nil
}

// ReusedMapOutputs returns, for a given step, the mappers of that job whose
// persisted outputs are reused (i.e. not re-executed). These are the shuffle
// sources the recomputed reducers read without any new map work.
func ReusedMapOutputs(ch *lineage.Chain, step JobStep) []lineage.MapperMeta {
	rec := ch.Job(step.Job)
	rerun := make(map[int]bool, len(step.Mappers))
	for _, m := range step.Mappers {
		rerun[m] = true
	}
	var out []lineage.MapperMeta
	for _, m := range rec.Mappers {
		if !rerun[m.Index] {
			out = append(out, m)
		}
	}
	return out
}

// frontierOutput names the output of a job that has no lineage record yet.
// Nothing reads it; it only has to differ from every recorded file name.
const frontierOutput = "\x00frontier"

// chainTopology lowers jobs 1..upTo of a linear lineage onto the graph
// planner's Topology, over the records' own file names (Chain.Append has
// checked that each job reads its predecessor's output, so the graph's
// topological order is the chain order). upTo may exceed the lineage by
// one: the interrupted job is recorded only on completion, so it is stood
// in for by a job reading the last recorded output.
func chainTopology(ch *lineage.Chain, upTo int) (*Topology, error) {
	jobs := make([]middleware.Job, 0, upTo)
	for j := 1; j <= upTo; j++ {
		job := middleware.Job{ID: middleware.JobID(strconv.Itoa(j)), Outputs: []string{frontierOutput}}
		if rec := ch.Job(j); rec != nil {
			job.Inputs, job.Outputs[0] = []string{rec.InputFile}, rec.OutputFile
		} else if j > 1 {
			job.Inputs = []string{ch.Job(j - 1).OutputFile}
		}
		jobs = append(jobs, job)
	}
	g, err := middleware.NewGraph(jobs)
	if err != nil {
		return nil, err
	}
	return NewTopology(g)
}
