package core

import (
	"cmp"
	"slices"

	"rcmp/internal/lineage"
)

// Episode is one adopted recovery plan as the cursor records it: the
// frontier the plan was built for and, per recomputation step, what
// regenerates and what is reused — all at partition granularity, because
// backends agree on where partitions live but not on how many blocks (and
// hence mappers) each one carves into from job 2 on. A loss folded into an
// open recovery (Recover reports false) still adopts a plan, so it still
// adds an Episode.
type Episode struct {
	// Frontier is the job that was running (or next) when the loss was
	// found; RestartJob is the job the plan restarts after its steps. On
	// chain workloads they coincide.
	Frontier   int
	RestartJob int
	// Invalidated counts cross-branch map-output invalidations (always 0
	// on chains; meaningful for DAG plans).
	Invalidated int
	Steps       []StepDecision
}

// StepDecision is one recomputation step of an episode.
type StepDecision struct {
	Job int
	// Partitions lists the output partitions this step regenerates,
	// ascending; Splits holds the aligned split count for each (1 = run
	// whole).
	Partitions []int
	Splits     []int
	// RerunParts / ReusedParts partition the step's input by mapper fate:
	// input partitions with at least one re-executed mapper, and input
	// partitions with at least one mapper whose persisted output is
	// reused, both ascending. The reuse set is the paper's surviving-branch
	// reuse claim: a non-empty ReusedParts proves the step recomputes less
	// than the whole job.
	RerunParts  []int
	ReusedParts []int
	// SplitInvalidated reports whether the split-correctness rule forced
	// any of the re-runs (Figure 5).
	SplitInvalidated bool
}

// captureEpisode snapshots a plan as Recover adopts it: after the backend
// built, checked and adjusted it, so the snapshot is exactly what runs.
// Mapper indices are positions in their job's record, as the planner
// assumes.
func captureEpisode(frontier int, plan *Plan, ch *lineage.Chain) Episode {
	ep := Episode{
		Frontier:    frontier,
		RestartJob:  plan.RestartJob,
		Invalidated: len(plan.Invalidated),
	}
	for _, step := range plan.Steps {
		sd := StepDecision{
			Job:              step.Job,
			SplitInvalidated: len(step.SplitInvalidated) > 0,
		}
		regens := slices.SortedFunc(slices.Values(step.Reducers), func(a, b ReducerRun) int {
			return cmp.Compare(a.Reducer, b.Reducer)
		})
		for _, rr := range regens {
			sd.Partitions = append(sd.Partitions, rr.Reducer)
			sd.Splits = append(sd.Splits, max(rr.Splits, 1))
		}
		rec := ch.Job(step.Job)
		rerun := make([]bool, len(rec.Mappers))
		for _, mi := range step.Mappers {
			rerun[mi] = true
		}
		for _, m := range rec.Mappers {
			if rerun[m.Index] {
				sd.RerunParts = append(sd.RerunParts, m.InputPartition)
			} else {
				sd.ReusedParts = append(sd.ReusedParts, m.InputPartition)
			}
		}
		slices.Sort(sd.RerunParts)
		slices.Sort(sd.ReusedParts)
		sd.RerunParts = slices.Compact(sd.RerunParts)
		sd.ReusedParts = slices.Compact(sd.ReusedParts)
		ep.Steps = append(ep.Steps, sd)
	}
	return ep
}
