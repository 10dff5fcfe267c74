// Package middleware implements the paper's middleware layer (Section
// IV-A): the component that knows the dependencies among the jobs of a
// multi-job computation, decides submission order, and — on irreversible
// data loss — infers which jobs must be recomputed and in what order so
// the lost data is regenerated.
//
// The master below it (internal/mapreduce) knows only how to run a single
// job; the middleware owns the graph. The paper evaluates chains, but its
// mechanisms are defined for any DAG of jobs, and so is this package: jobs
// may consume several input files and feed several consumers. For the
// task-level minimality inside each recomputed job, the middleware defers
// to the lineage-driven planner in internal/core.
package middleware

import (
	"fmt"
	"sort"
)

// JobID names a job within one computation.
type JobID string

// Job declares one job and the files it consumes and produces. A file is
// produced by at most one job; files not produced by any job are external
// inputs (assumed durable, like the paper's triple-replicated input).
type Job struct {
	ID      JobID
	Inputs  []string
	Outputs []string
}

// Graph is an immutable, validated job DAG.
type Graph struct {
	jobs     map[JobID]Job
	order    []JobID          // a topological order
	producer map[string]JobID // file -> producing job
	// consumers[file] lists jobs reading the file, in topological order.
	consumers map[string][]JobID
}

// NewGraph validates the job set and returns the DAG. Errors: duplicate
// job IDs, a file produced twice, or a dependency cycle.
func NewGraph(jobs []Job) (*Graph, error) {
	g := &Graph{
		jobs:      make(map[JobID]Job, len(jobs)),
		producer:  make(map[string]JobID),
		consumers: make(map[string][]JobID),
	}
	for _, j := range jobs {
		if j.ID == "" {
			return nil, fmt.Errorf("middleware: job with empty ID")
		}
		if _, dup := g.jobs[j.ID]; dup {
			return nil, fmt.Errorf("middleware: duplicate job %q", j.ID)
		}
		if len(j.Outputs) == 0 {
			return nil, fmt.Errorf("middleware: job %q produces nothing", j.ID)
		}
		g.jobs[j.ID] = j
		for _, out := range j.Outputs {
			if prev, dup := g.producer[out]; dup {
				return nil, fmt.Errorf("middleware: file %q produced by both %q and %q", out, prev, j.ID)
			}
			g.producer[out] = j.ID
		}
	}

	// Kahn's algorithm over job-level edges, with deterministic tie-breaks.
	indeg := make(map[JobID]int, len(g.jobs))
	succ := make(map[JobID][]JobID)
	for _, j := range g.jobs {
		indeg[j.ID] += 0
		for _, in := range j.Inputs {
			if p, ok := g.producer[in]; ok {
				succ[p] = append(succ[p], j.ID)
				indeg[j.ID]++
			}
		}
	}
	var ready []JobID
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sortIDs(ready)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		g.order = append(g.order, id)
		next := succ[id]
		sortIDs(next)
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
				sortIDs(ready)
			}
		}
	}
	if len(g.order) != len(g.jobs) {
		return nil, fmt.Errorf("middleware: dependency cycle among jobs")
	}
	for _, id := range g.order {
		for _, in := range g.jobs[id].Inputs {
			g.consumers[in] = append(g.consumers[in], id)
		}
	}
	return g, nil
}

func sortIDs(ids []JobID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Order returns a deterministic topological submission order.
func (g *Graph) Order() []JobID {
	return append([]JobID(nil), g.order...)
}

// Job returns a job declaration and whether it exists.
func (g *Graph) Job(id JobID) (Job, bool) {
	j, ok := g.jobs[id]
	return j, ok
}

// Consumers returns the jobs reading a file, in topological order.
func (g *Graph) Consumers(file string) []JobID {
	return append([]JobID(nil), g.consumers[file]...)
}

// Scheduler tracks computation progress: which jobs have completed, which
// is next. It is the middleware's submission loop (jobs are submitted one
// at a time once their producers are done, Section IV-A).
type Scheduler struct {
	g    *Graph
	done map[JobID]bool
}

// NewScheduler starts a fresh computation over the graph.
func NewScheduler(g *Graph) *Scheduler {
	return &Scheduler{g: g, done: make(map[JobID]bool)}
}

// Runnable returns the jobs whose producers have all completed and which
// have not themselves completed, in topological order.
func (s *Scheduler) Runnable() []JobID {
	var out []JobID
	for _, id := range s.g.order {
		if s.done[id] {
			continue
		}
		if s.ready(id) {
			out = append(out, id)
		}
	}
	return out
}

func (s *Scheduler) ready(id JobID) bool {
	j := s.g.jobs[id]
	for _, in := range j.Inputs {
		if p, ok := s.g.producer[in]; ok && !s.done[p] {
			return false
		}
	}
	return true
}

// Complete marks a job finished. Completing an unknown or unready job is
// an error (it indicates a driver bug).
func (s *Scheduler) Complete(id JobID) error {
	if _, ok := s.g.jobs[id]; !ok {
		return fmt.Errorf("middleware: unknown job %q", id)
	}
	if !s.ready(id) {
		return fmt.Errorf("middleware: job %q completed before its inputs", id)
	}
	s.done[id] = true
	return nil
}

// Done reports whether every job has completed.
func (s *Scheduler) Done() bool { return len(s.done) == len(s.g.jobs) }

// Completed reports one job's status.
func (s *Scheduler) Completed(id JobID) bool { return s.done[id] }

// RecoveryPlan lists, in execution order, the completed jobs that must be
// partially recomputed to regenerate lost files, and the affected files
// that triggered each (the tags of Section IV-A: the middleware tells the
// master which reducer outputs of which files were damaged).
type RecoveryPlan struct {
	Steps []RecoveryStep
}

// RecoveryStep is one job to re-run (partially) during recovery.
type RecoveryStep struct {
	Job JobID
	// LostOutputs are this job's output files with damaged partitions that
	// some consumer (or the restarted frontier) needs regenerated.
	LostOutputs []string
}

// PlanRecovery computes which completed jobs must recompute, given the set
// of damaged files (files with at least one irreversibly lost partition)
// and the set of jobs whose re-execution is already forced (typically the
// cancelled frontier job(s)).
//
// The cascade walks backwards: a job must recompute if any of its damaged
// outputs is consumed by a job that will (re)run; recomputing it re-reads
// its inputs, which extends the demand to its own producers when those
// inputs are damaged. External inputs must not be damaged — that is
// unrecoverable, matching the paper's assumption of a replicated original
// input.
func (g *Graph) PlanRecovery(damaged map[string]bool, forced []JobID) (*RecoveryPlan, error) {
	for f := range damaged {
		if _, produced := g.producer[f]; !produced {
			return nil, fmt.Errorf("middleware: external input %q lost; computation unrecoverable", f)
		}
	}
	willRun := make(map[JobID]bool, len(forced))
	for _, id := range forced {
		if _, ok := g.jobs[id]; !ok {
			return nil, fmt.Errorf("middleware: unknown forced job %q", id)
		}
		willRun[id] = true
	}

	// Walk jobs in reverse topological order; a single pass suffices
	// because all demand flows from consumers to producers.
	need := make(map[JobID][]string)
	for i := len(g.order) - 1; i >= 0; i-- {
		id := g.order[i]
		if willRun[id] && need[id] == nil {
			// A forced job re-reads all inputs; handled below via demand.
		}
		j := g.jobs[id]
		var lost []string
		for _, out := range j.Outputs {
			if !damaged[out] {
				continue
			}
			demanded := false
			for _, c := range g.consumers[out] {
				if willRun[c] {
					demanded = true
					break
				}
			}
			if demanded {
				lost = append(lost, out)
			}
		}
		if len(lost) > 0 {
			sort.Strings(lost)
			need[id] = lost
			willRun[id] = true
		}
	}

	plan := &RecoveryPlan{}
	for _, id := range g.order {
		if outs, ok := need[id]; ok {
			plan.Steps = append(plan.Steps, RecoveryStep{Job: id, LostOutputs: outs})
		}
	}
	return plan, nil
}

// Chain is a convenience constructor for the paper's linear workload:
// job i reads out(i-1) (or input for i=1) and writes out(i).
func Chain(n int) []Job {
	jobs := make([]Job, 0, n)
	for i := 1; i <= n; i++ {
		in := "input"
		if i > 1 {
			in = fmt.Sprintf("out%d", i-1)
		}
		jobs = append(jobs, Job{
			ID:      JobID(fmt.Sprintf("job%d", i)),
			Inputs:  []string{in},
			Outputs: []string{fmt.Sprintf("out%d", i)},
		})
	}
	return jobs
}
