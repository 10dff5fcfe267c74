// graph.go makes a job graph — not a chain — the unit of execution. A
// GraphConfig names jobs and their input/output file edges; the middleware
// validates the DAG and fixes the deterministic submission order, and the
// driver executes jobs along it, planning recovery through the graph
// planner (core.BuildGraphPlan). A linear chain is the degenerate case:
// RunChain lowers to a linear GraphConfig whose execution is byte-identical
// to the historical chain engine (pinned by the golden digests and the
// chain≡graph equivalence test).
package mapreduce

import (
	"rcmp/internal/core"
	"rcmp/internal/middleware"
)

// GraphJob declares one job of a graph computation: the files it reads and
// the single file it produces. Files no job produces are external inputs,
// laid out like the paper's triple-replicated original input.
type GraphJob struct {
	Name   string
	Inputs []string
	Output string
}

// GraphConfig describes a whole DAG computation. The embedded ChainConfig
// supplies every knob except the job list; NumJobs is derived from Jobs
// and need not be set.
type GraphConfig struct {
	ChainConfig
	Jobs []GraphJob
}

// LinearJobs lowers an n-job chain to its graph form, named by
// middleware.ChainNames: job i reads job i-1's output, job 1 the external
// "input". These are the historical chain file names, so the DFS layout —
// and therefore every digest — is unchanged.
func LinearJobs(n int) []GraphJob {
	jobs := make([]GraphJob, 0, n)
	for i := 1; i <= n; i++ {
		id, in, out := middleware.ChainNames(i)
		jobs = append(jobs, GraphJob{Name: string(id), Inputs: []string{in}, Output: out})
	}
	return jobs
}

// buildTopology validates the job list as a DAG and returns its execution
// topology (1-based topological positions).
func buildTopology(jobs []GraphJob) (*core.Topology, error) {
	mw := make([]middleware.Job, 0, len(jobs))
	for _, j := range jobs {
		mw = append(mw, middleware.Job{
			ID:      middleware.JobID(j.Name),
			Inputs:  j.Inputs,
			Outputs: []string{j.Output},
		})
	}
	g, err := middleware.NewGraph(mw)
	if err != nil {
		return nil, err
	}
	return core.NewTopology(g)
}

// RunGraph executes one graph computation on the context: the one-tenant
// session.
func (ctx *Context) RunGraph(cfg GraphConfig) (*Result, error) {
	if err := ctx.start(cfg, 1); err != nil {
		return nil, err
	}
	ctx.sim.Run()
	return ctx.session.drivers[0].finish()
}
