// session.go runs N tenants' job graphs concurrently on one shared
// simulated cluster: their transfers contend in the flow network simply by
// coexisting there, and their tasks contend for compute through one shared
// slot table. Scheduling is work-conserving with fixed tenant priority:
// whenever an event frees capacity, every tenant's run gets an assignment
// pass in tenant order (pumpAll), so the slot arbitration is deterministic.
// A graph run (RunGraph, RunChain) is the one-tenant session.
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
	"math/rand"

	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/middleware"
)

// session coordinates the tenants sharing one context. It lives in the
// Context, so the slot table's per-node slices survive across runs.
type session struct {
	drivers []*Driver
	slots   slotTable
	pumping bool
	again   bool
	// victims draws the nodes of node -1 injections, seeded with tenant
	// 0's seed. It is built on the first such draw: rand.New's interface
	// assertion fills a run-time type cache at random moments, an
	// allocation a run that draws nothing should not make.
	victims *rand.Rand
}

// MultiResult summarizes one multi-tenant session.
type MultiResult struct {
	// Makespan is the virtual time until the last tenant finished.
	Makespan des.Time
	// Tenants holds each tenant's own chain result (its Total is that
	// tenant's completion time). Its Events and Flows are the shared
	// simulation's totals, the same as the session-wide ones below.
	Tenants []*Result
	Events  uint64
	Flows   uint64
}

// RunMultiTenant executes `tenants` copies of the graph concurrently on the
// context's shared cluster. Above one tenant, each tenant's files live
// under a "t<i>/" prefix, so the tenants share nothing but the machines.
// Tenant 0's failure schedule (and seed) drives injections; a failed node
// is failed for everyone.
func (ctx *Context) RunMultiTenant(cfg GraphConfig, tenants int) (*MultiResult, error) {
	if err := ctx.start(cfg, tenants); err != nil {
		return nil, err
	}
	ctx.sim.Run()
	out := &MultiResult{Events: ctx.sim.Processed, Flows: ctx.clus.Net.Completed}
	for t, d := range ctx.session.drivers {
		res, err := d.finish()
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", t, err)
		}
		out.Makespan = max(out.Makespan, res.Total)
		out.Tenants = append(out.Tenants, res)
	}
	return out, nil
}

// start resets the context and sets up `tenants` copies of the graph as one
// session, up to the first job of each: it resolves the shuffle tier once
// for the cluster, builds every tenant's driver, resets the shared slot
// table, lays out every tenant's inputs and starts their first jobs. The
// caller runs the simulator.
func (ctx *Context) start(cfg GraphConfig, tenants int) error {
	cfg.ChainConfig = cfg.ChainConfig.withDefaults()
	cfg.NumJobs = len(cfg.Jobs)
	if err := cfg.Validate(); err != nil {
		return err
	}
	if tenants < 1 {
		return fmt.Errorf("mapreduce: tenants=%d", tenants)
	}
	ctx.reset(cfg.BlockSize)
	agg := cfg.aggregatedShuffle(ctx.clus.NumNodes())
	if agg {
		// The aggregated tier rides the flow network's class accounting:
		// per-trunk shared rates and heap-backed completion candidates, so
		// per-event cost tracks rate classes, not in-flight transfers.
		// (Reset clears the mode, so a reused context flips per run.)
		ctx.clus.Net.EnableClassAccounting()
	}
	s := &ctx.session
	clear(s.drivers)
	s.drivers = s.drivers[:0]
	s.victims = nil
	for t := 0; t < tenants; t++ {
		jobs := cfg.Jobs
		if tenants > 1 {
			jobs = prefixJobs(jobs, t)
		}
		topo, err := core.TopologyOf(jobs)
		if err != nil {
			return err
		}
		d := newDriver(ctx, cfg.ChainConfig, topo)
		d.agg = agg
		s.drivers = append(s.drivers, d)
	}
	s.slots.reset(ctx.clus, ctx.clus.Cfg.MapSlots, ctx.clus.Cfg.ReduceSlots)
	for _, d := range s.drivers {
		if err := d.createInput(); err != nil {
			return err
		}
		d.reserveRecorder()
	}
	for _, d := range s.drivers {
		d.next()
	}
	return nil
}

// prefixJobs rewrites a tenant's job and file names under "t<i>/", giving
// each tenant a private DFS namespace on the shared cluster.
func prefixJobs(jobs []middleware.Job, tenant int) []middleware.Job {
	p := fmt.Sprintf("t%d/", tenant)
	out := make([]middleware.Job, len(jobs))
	for i, j := range jobs {
		ins := make([]string, len(j.Inputs))
		for k, in := range j.Inputs {
			ins[k] = p + in
		}
		out[i] = middleware.Job{ID: middleware.JobID(p) + j.ID, Inputs: ins, Output: p + j.Output}
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

// injectFailure kills a node for every tenant at once: compute and storage
// are gone immediately; each tenant's master reacts after the detection
// timeout. Victim selection for node -1 draws from s.victims, and it never
// takes the last alive node.
func (s *session) injectFailure(node int) {
	anyLive := false
	for _, d := range s.drivers {
		if d.err != nil {
			return // session is failing; no further injections
		}
		if !d.cur.Finished() {
			anyLive = true
		}
	}
	if !anyLive {
		return
	}
	d0 := s.drivers[0]
	if node < 0 {
		if s.victims == nil {
			s.victims = rand.New(rand.NewSource(d0.cfg.Seed))
		}
		alive := d0.clus.Alive()
		node = alive[s.victims.Intn(len(alive))]
	}
	if d0.failedNodes[node] || d0.clus.NumAlive() <= 1 {
		return
	}
	d0.clus.Fail(node)
	d0.fs.FailNode(node)
	for _, d := range s.drivers {
		d.failedNodes[node] = true
		if !d.cur.Finished() && d.current != nil {
			d.current.nodeDown(node)
		}
		d.pendingDetect++
	}
	d0.sim.After(d0.clus.Cfg.FailureDetectionTimeout, func() {
		// Every tenant's master notices at the same detection deadline;
		// recovery planning runs in tenant order over the same damage.
		for _, d := range s.drivers {
			d.onDetect(node)
		}
	})
}
