// Package analytic is the closed-form performance twin of the discrete-event
// simulator: it computes chain/graph makespan, per-phase timings, and
// recovery cost (cascade depth, regenerated partitions, SPLIT vs NO-SPLIT
// recovery seconds) directly from cluster.Config + ChainConfig/GraphConfig
// and a failure schedule, with no event loop. It reads the job graph the
// simulator reads: one core.Topology fixes the job order (so an
// Injection's AtRun names the same job on both engines), the producer of
// every file, and the external inputs (ProducerOf == 0, one partition of
// InputPerNode bytes per node, as the simulator lays them out).
//
// The model has two parts. The failure-free schedule derives from the
// closed-form facts of a failure-free run — task phase timers are pure
// delays, and class accounting knows each trunk's rate ahead: map waves
// gated by the slot table, water-filled aggregate shuffle rates per rate
// class (source NICs, destination NICs, the oversubscribed core, and
// seek-capped disks at the shuffle weight f), merge at ReduceCPU, and
// replication-pipelined output writes. The recovery part drives the
// middleware every other engine drives: one core.Cursor decides which
// (job, kind) runs next, and a detection hands it a plan built by
// core.BuildGraphPlan's rule at job granularity. The twin keeps no
// per-task layout, so a produced file whose replication is at most the
// dead count has lost ≈R·v/N of its partitions (round-robin placement of R
// partitions on v victims out of N nodes), and the plan regenerates those
// — optionally split s ways — in every completed job a pending job's
// inputs reach, before the frontier job restarts and the remainder of the
// graph runs on the degraded cluster. In Hadoop mode the running job
// absorbs a failure.
//
// A run ends in the simulator's error (a lost original input; in Hadoop
// mode, a lost partition of a file the running job reads) only where the
// twin can pin the loss to victims the schedule names (Injection.Node): an
// external input laid out as the simulator's createInput lays it, or an
// output written once per node by round-robin reducers. Victims drawn at
// random are counted but never named, so they never end a run here,
// though the simulator may lose data to them.
//
// The closed form has no calibration constants: every duration is derived
// from cluster.Config and the chain configuration, so an answer never
// depends on ambient DES runs.
//
// Every entry point returns the same result types the simulator produces
// (*mapreduce.Result, *mapreduce.MultiResult) with synthetic run stats and
// task samples, so every experiment in the registry can run unchanged on
// either engine. Events and Flows are zero: there is no event loop.
package analytic

import (
	"fmt"
	"math"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/mapreduce"
	"rcmp/internal/middleware"
)

// sampleCap bounds the synthetic per-task samples a run emits. Beyond it
// (and whenever NoTaskSamples is set) the evaluator records run stats only,
// keeping 10⁵–10⁶-node what-ifs allocation-light.
const sampleCap = 1 << 17

// RunChain evaluates a linear chain analytically. It mirrors
// mapreduce.RunChain: same validation, same result contract.
func RunChain(ccfg cluster.Config, cfg mapreduce.ChainConfig) (*mapreduce.Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return RunGraph(ccfg, mapreduce.GraphConfig{ChainConfig: cfg, Jobs: middleware.Chain(cfg.NumJobs)})
}

// RunGraph evaluates a DAG of jobs analytically, mirroring
// mapreduce.Context.RunGraph.
func RunGraph(ccfg cluster.Config, cfg mapreduce.GraphConfig) (*mapreduce.Result, error) {
	chain, topo, err := prepare(ccfg, cfg)
	if err != nil {
		return nil, err
	}
	ev, err := evaluate(ccfg, chain, topo, 1)
	if err != nil {
		return nil, err
	}
	return ev.result(), nil
}

// prepare defaults and validates a graph run and indexes its jobs.
func prepare(ccfg cluster.Config, cfg mapreduce.GraphConfig) (mapreduce.ChainConfig, *core.Topology, error) {
	cfg.ChainConfig = cfg.ChainConfig.WithDefaults()
	cfg.NumJobs = len(cfg.Jobs)
	if err := cfg.Validate(); err != nil {
		return cfg.ChainConfig, nil, err
	}
	if err := ccfg.Validate(); err != nil {
		return cfg.ChainConfig, nil, err
	}
	topo, err := core.TopologyOf(cfg.Jobs)
	return cfg.ChainConfig, topo, err
}

// RunMultiTenant evaluates `tenants` copies of the graph sharing one
// cluster, mirroring mapreduce.Context.RunMultiTenant. The single-tenant
// schedule is evaluated once; contention scales it by the session's
// resource-bound lower envelope, so makespan and recovery cost are
// non-decreasing in the tenant count by construction.
func RunMultiTenant(ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (*mapreduce.MultiResult, error) {
	se, err := evalSession(ccfg, cfg, tenants)
	if err != nil {
		return nil, err
	}
	makespan := se.freeSpan + se.recSpan
	res := se.ev.result()
	scale := 1.0
	if se.ev.now > 0 {
		scale = makespan / se.ev.now
	}
	out := &mapreduce.MultiResult{Makespan: des.Time(makespan)}
	for i := 0; i < tenants; i++ {
		// Tenants share the run/task slices — session metrics only read
		// them — but each carries its own completion time.
		tr := *res
		tr.Total = des.Time(float64(res.Total) * scale)
		out.Tenants = append(out.Tenants, &tr)
	}
	return out, nil
}

// sessionEval is the evaluated shared-cluster session RunMultiTenant and
// PlanSession both read: the failure-free span, the recovery span stacked
// on top of it, and the two single-tenant evaluations behind them.
type sessionEval struct {
	freeSpan float64 // failure-free session makespan
	recSpan  float64 // recovery extension under the failure schedule
	ev       *eval   // single tenant, failures applied
	evFree   *eval   // single tenant, failure-free
}

// evalSession evaluates `tenants` copies of the graph sharing one cluster.
func evalSession(ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (sessionEval, error) {
	var se sessionEval
	chain, topo, err := prepare(ccfg, cfg)
	if err != nil {
		return se, err
	}
	if tenants < 1 {
		return se, fmt.Errorf("analytic: tenants=%d", tenants)
	}

	// One tenant, with the schedule's failures: the per-tenant critical
	// path, including reaction + cascade + restart.
	ev, err := evaluate(ccfg, chain, topo, tenants)
	if err != nil {
		return se, err
	}

	// The same tenant failure-free: isolates the recovery delta.
	chain.Failures = nil
	evFree, err := evaluate(ccfg, chain, topo, tenants)
	if err != nil {
		return se, err
	}

	// Resource-bound session floor: T tenants push T× the disk bytes and
	// T× the slot-seconds through one cluster. The makespan is the larger
	// of the single-tenant critical path and that floor; the recovery
	// delta gets the same treatment over the cascade's own resource
	// demand, so SPLIT's shorter critical path converges to NO-SPLIT's as
	// utilization grows — the paper's Section V-E effect.
	// The per-tenant resource demand is clamped to the critical path so one
	// tenant reproduces the single-tenant schedule exactly; the closed form
	// can overestimate aggregate demand (its resource bound assumes perfect
	// overlap the schedule doesn't always achieve), and the clamp keeps that
	// error out of the t=1 anchor while preserving monotonicity in t.
	t := float64(tenants)
	freeRes := math.Min(evFree.resourceSeconds, evFree.now)
	freeSpan := math.Max(evFree.now, t*freeRes)
	extra := ev.now - evFree.now // reaction + cascade + restart delta
	if extra < 0 {
		extra = 0
	}
	recRes := math.Min(ev.recoveryResourceSeconds, extra)
	recSpan := math.Max(extra, t*recRes)
	return sessionEval{freeSpan: freeSpan, recSpan: recSpan, ev: ev, evFree: evFree}, nil
}

// SessionPlan is one capacity-planning answer: the shared-cluster session
// evaluated at a (nodes, tenants) point, with the utilization the tenant
// count actually dials. All times are simulated seconds.
type SessionPlan struct {
	// FreeMakespan is the failure-free session makespan.
	FreeMakespan float64
	// Makespan is the session makespan under the failure schedule.
	Makespan float64
	// Recovery is Makespan − FreeMakespan: what the failure costs.
	Recovery float64
	// Utilization is the failure-free session's busy slot-seconds over its
	// slot capacity (tenants·perTenantBusy / (FreeMakespan·nodes·slots)) —
	// computed from the model's own busy accounting, so it stays available
	// at cluster sizes where per-task samples are capped away.
	Utilization float64
}

// PlanSession answers the capacity-planning question behind the sweep
// server's /v1/plan endpoint without materializing per-tenant results:
// it evaluates the session once and reports makespan, recovery cost and
// utilization. Unlike RunMultiTenant it allocates nothing per tenant, so
// sweeping the tenant axis at 10⁵–10⁶ nodes stays microseconds per point.
func PlanSession(ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (SessionPlan, error) {
	se, err := evalSession(ccfg, cfg, tenants)
	if err != nil {
		return SessionPlan{}, err
	}
	p := SessionPlan{
		FreeMakespan: se.freeSpan,
		Makespan:     se.freeSpan + se.recSpan,
		Recovery:     se.recSpan,
	}
	capacity := p.FreeMakespan * float64(ccfg.Nodes) * float64(ccfg.MapSlots+ccfg.ReduceSlots)
	if capacity > 0 {
		p.Utilization = math.Min(1, float64(tenants)*se.evFree.busySeconds/capacity)
	}
	return p, nil
}
