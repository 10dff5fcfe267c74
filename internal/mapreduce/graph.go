// graph.go makes a job graph — not a chain — the unit of execution. A
// GraphConfig lists middleware.Jobs; core.TopologyOf validates the DAG and
// fixes the deterministic submission order, and the driver executes jobs
// along it, planning recovery through the graph planner
// (core.BuildGraphPlan). A linear chain is the degenerate case: RunChain
// lowers over middleware.Chain(n), whose execution is byte-identical to the
// historical chain engine (pinned by the golden digests and the
// chain≡graph equivalence test).
package mapreduce

import "rcmp/internal/middleware"

// GraphConfig describes a whole DAG computation. The embedded ChainConfig
// supplies every knob except the job list; NumJobs is derived from Jobs
// and need not be set. Files no job produces are external inputs, laid out
// like the paper's triple-replicated original input.
type GraphConfig struct {
	ChainConfig
	Jobs []middleware.Job
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
