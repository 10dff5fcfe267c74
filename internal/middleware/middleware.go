// Package middleware holds the job graph of the paper's middleware layer
// (Section IV-A): the component that knows the dependencies among the jobs
// of a multi-job computation and decides their submission order.
//
// The master below it (internal/mapreduce) knows only how to run a single
// job; the middleware owns the graph. The paper evaluates chains, but its
// mechanisms are defined for any DAG of jobs, and so is this package: jobs
// may consume several input files and feed several consumers. Which jobs
// recompute after data loss, and which of their tasks, is decided in one
// place over this graph: the recovery planner in internal/core
// (core.BuildGraphPlan).
package middleware

import (
	"fmt"
	"sort"
)

// JobID names a job within one computation.
type JobID string

// Job declares one job: the files it reads and the one file it writes,
// the shape the MapReduce engines execute. A file is produced by at most
// one job; files no job produces are external inputs (assumed durable and
// laid out like the paper's triple-replicated input). This is the one job
// declaration: the simulator, the analytic twin and the planner all run
// graphs of it.
type Job struct {
	ID     JobID
	Inputs []string
	Output string
}

// Graph is an immutable, validated job DAG.
type Graph struct {
	jobs     map[JobID]Job
	order    []JobID          // a topological order
	producer map[string]JobID // file -> producing job
	// consumers[file] lists jobs reading the file, in topological order.
	consumers map[string][]JobID
}

// NewGraph validates the job set and returns the DAG. Errors: an empty job
// ID or output, duplicate job IDs, a file produced twice, or a dependency
// cycle.
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
		if j.Output == "" {
			return nil, fmt.Errorf("middleware: job %q produces nothing", j.ID)
		}
		if prev, dup := g.producer[j.Output]; dup {
			return nil, fmt.Errorf("middleware: file %q produced by both %q and %q", j.Output, prev, j.ID)
		}
		g.jobs[j.ID] = j
		g.producer[j.Output] = j.ID
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

// Chain is a convenience constructor for the paper's linear workload:
// job i reads out(i-1) (or input for i=1) and writes out(i).
func Chain(n int) []Job {
	jobs := make([]Job, 0, n)
	for i := 1; i <= n; i++ {
		id, in, out := ChainNames(i)
		jobs = append(jobs, Job{ID: id, Inputs: []string{in}, Output: out})
	}
	return jobs
}

// ChainNames names job i (1-based) of the linear chain and its files:
// "job<i>" reads "out<i-1>" ("input" for i = 1) and writes "out<i>". Every
// backend names its chains through it, so their DFS layouts agree.
func ChainNames(i int) (id JobID, in, out string) {
	in = "input"
	if i > 1 {
		in = fmt.Sprintf("out%d", i-1)
	}
	return JobID(fmt.Sprintf("job%d", i)), in, fmt.Sprintf("out%d", i)
}
