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
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
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

// BuildPlan computes the minimal recovery plan after data loss on a linear
// chain. It is a lowering: the cascade, the split rule and the pruning live
// in BuildGraphPlan (graphplan.go); this plans over the chain's
// LinearTopology, whose file names (middleware.ChainNames) the lineage
// must use.
//
// failedJob is the 1-based index of the job that was running (or about to
// run) when the loss was detected; jobs failedJob..end have not completed.
// The interrupted job has no lineage record yet (records are written on
// completion), so failedJob may exceed the chain by exactly one. failed is
// the set of all failed nodes so far — a plan built while earlier failures
// are still being repaired naturally folds in all accumulated damage, which
// is how RCMP services nested failures with a single recomputation pass
// (Section IV-A).
//
// The plan's steps form a contiguous range ending at failedJob-1: the
// cascade extends backwards exactly as far as lost data forces it to.
func BuildPlan(ch *lineage.Chain, fs *dfs.FS, failedJob int, failed map[int]bool, opts Options) (*Plan, error) {
	topo, err := LinearTopology(max(ch.Len(), failedJob))
	if err != nil {
		return nil, err
	}
	return BuildGraphPlan(ch, topo, fs, failedJob, failed, opts)
}
