// session.go runs N tenants' job graphs concurrently on one shared
// simulated cluster: their transfers contend in the flow network simply by
// coexisting there, and their tasks contend for compute through one shared
// slot table. Scheduling is work-conserving with fixed tenant priority:
// whenever an event frees capacity, every tenant's run gets an assignment
// pass in tenant order (pumpAll), so the slot arbitration is deterministic.
//
// Failures are cluster events, not tenant events: one injection (driven by
// tenant 0's schedule and seed) kills the node for everyone, every tenant's
// running job reacts instantly, and one detection timer triggers each
// tenant's recovery planning in tenant order.
//
// Tenants share one event queue as well: the session resolves the shuffle
// tier once for the cluster, and every tenant's timers, flows and
// failure pulses interleave in that queue's (time, sequence) order.
package mapreduce

import (
	"fmt"

	"rcmp/internal/des"
)

// session coordinates the tenants sharing one context.
type session struct {
	ctx         *Context
	drivers     []*Driver
	slots       slotTable
	failedNodes map[int]bool
	pumping     bool
	again       bool
}

// MultiResult summarizes one multi-tenant session.
type MultiResult struct {
	// Makespan is the virtual time until the last tenant finished.
	Makespan des.Time
	// Tenants holds each tenant's own chain result (its Total is that
	// tenant's completion time). Events/Flows are zero per tenant — the
	// session-wide totals below count the shared simulation once.
	Tenants []*Result
	Events  uint64
	Flows   uint64
}

// RunMultiTenant executes `tenants` copies of the graph concurrently on the
// context's shared cluster. Each tenant's files live under a "t<i>/"
// prefix, so the tenants share nothing but the machines. Tenant 0's failure
// schedule (and seed) drives injections; a failed node is failed for
// everyone.
func (ctx *Context) RunMultiTenant(cfg GraphConfig, tenants int) (*MultiResult, error) {
	cfg.ChainConfig = cfg.ChainConfig.withDefaults()
	cfg.NumJobs = len(cfg.Jobs)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tenants < 1 {
		return nil, fmt.Errorf("mapreduce: tenants=%d", tenants)
	}
	ctx.reset(cfg.BlockSize)
	s := &session{ctx: ctx, failedNodes: make(map[int]bool)}
	agg := cfg.aggregatedShuffle(ctx.clus.NumNodes())
	if agg {
		ctx.clus.Net.EnableClassAccounting()
	}
	for t := 0; t < tenants; t++ {
		topo, err := buildTopology(prefixJobs(cfg.Jobs, t))
		if err != nil {
			return nil, err
		}
		d := newDriver(ctx, cfg.ChainConfig, topo, false)
		d.agg = agg
		d.session = s
		s.drivers = append(s.drivers, d)
	}
	s.slots.reset(ctx.clus, ctx.clus.Cfg.MapSlots, ctx.clus.Cfg.ReduceSlots)
	for _, d := range s.drivers {
		if err := d.createInput(); err != nil {
			return nil, err
		}
		d.reserveRecorder()
	}
	for _, d := range s.drivers {
		d.startInitial(1)
	}
	ctx.sim.Run()

	out := &MultiResult{
		Events: ctx.sim.Processed,
		Flows:  ctx.clus.Net.Completed,
	}
	for t, d := range s.drivers {
		if d.err != nil {
			return nil, fmt.Errorf("tenant %d: %w", t, d.err)
		}
		if !d.finished {
			return nil, fmt.Errorf("mapreduce: simulation drained before tenant %d completed (job %d)", t, d.frontier)
		}
		if d.current != nil {
			ctx.recycleRun(d.current)
			d.current = nil
		}
		if d.endTime > out.Makespan {
			out.Makespan = d.endTime
		}
		out.Tenants = append(out.Tenants, &Result{
			Total:               d.endTime,
			Runs:                d.rec.Runs,
			Recorder:            d.rec,
			StartedRuns:         d.runCounter,
			SpeculativeLaunched: d.specLaunched,
			SpeculativeWasted:   d.specWasted,
		})
	}
	return out, nil
}

// prefixJobs rewrites a tenant's job and file names under "t<i>/", giving
// each tenant a private DFS namespace on the shared cluster.
func prefixJobs(jobs []GraphJob, tenant int) []GraphJob {
	p := fmt.Sprintf("t%d/", tenant)
	out := make([]GraphJob, len(jobs))
	for i, j := range jobs {
		ins := make([]string, len(j.Inputs))
		for k, in := range j.Inputs {
			ins[k] = p + in
		}
		out[i] = GraphJob{Name: p + j.Name, Inputs: ins, Output: p + j.Output}
	}
	return out
}

// pumpAll gives every tenant's running job an assignment pass, in tenant
// order, repeating while any pass changed state (a completing pass can
// free slots for tenants already visited). The re-entrancy guard collapses
// nested wakes — a pump that completes a run synchronously starts the
// tenant's next job, whose begin pumps — into the outer loop.
func (s *session) pumpAll() {
	if s.pumping {
		s.again = true
		return
	}
	s.pumping = true
	for {
		s.again = false
		for _, d := range s.drivers {
			if d.current != nil && !d.current.done {
				d.current.pump()
			}
		}
		if !s.again {
			break
		}
	}
	s.pumping = false
}

// injectFailure is the session-wide failure path: one node dies for every
// tenant at once. Victim selection for Node:-1 draws from tenant 0's rng,
// mirroring the single-tenant arithmetic.
func (s *session) injectFailure(node int) {
	anyLive := false
	for _, d := range s.drivers {
		if d.err != nil {
			return // session is failing; no further injections
		}
		if !d.finished {
			anyLive = true
		}
	}
	if !anyLive {
		return
	}
	d0 := s.drivers[0]
	if node < 0 {
		alive := s.ctx.clus.Alive()
		node = alive[d0.rng.Intn(len(alive))]
	}
	if s.failedNodes[node] || s.ctx.clus.NumAlive() <= 1 {
		return
	}
	s.failedNodes[node] = true
	s.ctx.clus.Fail(node)
	s.ctx.fs.FailNode(node)
	for _, d := range s.drivers {
		d.failedNodes[node] = true
		if !d.finished && d.current != nil {
			d.current.nodeDown(node)
		}
	}
	s.ctx.sim.After(s.ctx.clus.Cfg.FailureDetectionTimeout, func() {
		// Every tenant's master notices at the same detection deadline;
		// recovery planning runs in tenant order over the same damage.
		for _, d := range s.drivers {
			d.onDetect(node)
		}
	})
}
