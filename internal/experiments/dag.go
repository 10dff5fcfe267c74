// dag.go holds the experiments the graph-driven engine unlocked: recovery
// through a fan-in DAG (where a surviving branch's outputs are reused
// instead of recomputed) and multi-tenant shared-cluster sessions (where
// recovery time is a function of how contended the cluster is).
package experiments

import (
	"fmt"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
	"rcmp/internal/middleware"
	"rcmp/internal/textplot"
)

// diamondJobs is the canonical fan-out/fan-in workload: prep feeds two
// independent branches that a final join consumes together. A failure
// while the join runs damages both branch outputs' partitions on the dead
// node, but the graph planner recomputes only what the join actually lost
// — partitions a surviving branch still holds are reused as-is.
func diamondJobs() []middleware.Job {
	return []middleware.Job{
		{ID: "prep", Inputs: []string{"input"}, Output: "base"},
		{ID: "enrich", Inputs: []string{"base"}, Output: "enr"},
		{ID: "filter", Inputs: []string{"base"}, Output: "flt"},
		{ID: "join", Inputs: []string{"flt", "enr"}, Output: "joined"},
	}
}

// runGraph executes one graph on the setup's engine; an error leaves the
// figure as a chainError, the way run does for chains.
func runGraph(st setup, jobs []middleware.Job) *mapreduce.Result {
	res, err := st.w.runGraph(st.engine, st.ccfg, mapreduce.GraphConfig{ChainConfig: st.cfg, Jobs: jobs})
	if err != nil {
		panic(chainError{fmt.Errorf("experiment %s: %w", st.name, err)})
	}
	return res
}

// DAGRecovery measures the fan-in cascade on the diamond workload: a node
// dies while the join runs, and each strategy pays its own price — RCMP
// recomputes the damaged partitions of the jobs that lost data (reusing
// the surviving branch), Hadoop leans on replication. Totals are reported
// as slowdown versus the fastest strategy, plus the RCMP cascade's size
// (recompute runs and tasks), which is what the surviving-branch skip
// keeps small.
func DAGRecovery(c Config) (*Result, error) {
	r := newResult(failureNote(c, "DAGRecovery: diamond fan-in cascade"))
	st := sticSetup(c, 1, 1)
	st.cfg.NumJobs = len(diamondJobs()) // the graph defines the job count
	fails, err := failureScenario(c, st, st.cfg.NumJobs)
	if err != nil {
		return nil, err
	}
	st.cfg.Failures = fails

	strategies := []strategy{rcmpSplit, rcmpNoSplit, hadoopRepl2, hadoopRepl3}
	runs := make([]*mapreduce.Result, len(strategies))
	st.w.each(st.engine, len(strategies), nil, nil, func(lane *Worker, i int) {
		stv := st.with(strategies[i])
		stv.cfg.NoTaskSamples = strategies[i] != rcmpNoSplit // its cascade size is counted in tasks
		stv.w = lane
		runs[i] = runGraph(stv, diamondJobs())
	})
	var totals []float64
	for i, s := range strategies {
		res := runs[i]
		totals = append(totals, float64(res.Total))
		addSpeculationValues(r, c, s.String(), res)
		if s == rcmpNoSplit {
			recompRuns, recompTasks := 0, 0
			for _, rs := range res.Runs {
				if rs.Kind == metrics.RunRecompute {
					recompRuns++
				}
			}
			for _, ts := range res.Recorder.Tasks {
				if ts.RunKind == metrics.RunRecompute {
					recompTasks++
				}
			}
			r.Values["recompute runs"] = float64(recompRuns)
			r.Values["recompute tasks"] = float64(recompTasks)
		}
	}
	var rows [][]string
	for i, slow := range vsBest(totals) {
		l := strategies[i].String()
		r.Values[l] = slow
		rows = append(rows, []string{l, textplot.Num(slow)})
	}
	r.Text = textplot.Table(r.Name+" (slowdown vs fastest)", []string{"strategy", "slowdown"}, rows)
	return r, nil
}

// MultiTenant measures recovery under contention: N tenants run the
// chain workload concurrently on one shared cluster, a node dies while
// tenant 0's second job runs (a cluster event — every tenant loses it),
// and the recovery time is the failure session's makespan over the
// failure-free session's. The utilization column — busy slot-seconds over
// the failure-free session's capacity — is what the tenant count actually
// dials: recovery gets more expensive as the cluster fills, and the
// SPLIT/NO-SPLIT comparison shows whether spreading recomputed reducers
// still pays when the extra slots it wants are occupied by other tenants.
func MultiTenant(c Config) (*Result, error) {
	r := newResult(failureNote(c, "MultiTenant: recovery time vs cluster utilization"))
	st := sticSetup(c, 2, 2)
	tenantCounts := []int{1, 2, 4}
	if c.Scale == ScaleQuick {
		tenantCounts = []int{1, 2}
	}
	if c.Tenants > 0 {
		tenantCounts = []int{c.Tenants}
	}
	fails, err := failureScenario(c, st, 2)
	if err != nil {
		return nil, err
	}

	jobs := middleware.Chain(st.cfg.NumJobs)

	type session struct {
		tenants int
		s       strategy
		failed  bool
	}
	var sessions []session
	for _, tn := range tenantCounts {
		// Splitting only changes recovery planning, so one failure-free
		// session is the baseline for both strategies.
		sessions = append(sessions, session{tn, rcmpNoSplit, false}, session{tn, rcmpSplit, true}, session{tn, rcmpNoSplit, true})
	}
	out := make([]*mapreduce.MultiResult, len(sessions))
	// The sessions with the most tenants take longest, so they start first.
	st.w.each(st.engine, len(sessions), descending(len(sessions)), nil, func(lane *Worker, i int) {
		se := sessions[i]
		cfg := st.with(se.s).cfg
		if se.failed {
			cfg.Failures = fails
		} else {
			cfg.NoTaskSamples = false // sessionUtilization reads its tasks
		}
		mr, err := lane.runMultiTenant(st.engine, st.ccfg, mapreduce.GraphConfig{ChainConfig: cfg, Jobs: jobs}, se.tenants)
		if err != nil {
			panic(chainError{fmt.Errorf("experiment %s (tenants=%d): %w", st.name, se.tenants, err)})
		}
		out[i] = mr
	})

	var rows [][]string
	for k, tn := range tenantCounts {
		free, split, noSplit := out[3*k], out[3*k+1], out[3*k+2]
		util := sessionUtilization(free, st.ccfg)
		splitRec := float64(split.Makespan) - float64(free.Makespan)
		noSplitRec := float64(noSplit.Makespan) - float64(free.Makespan)
		r.Values[fmt.Sprintf("utilization @ %d tenants", tn)] = util
		r.Values[fmt.Sprintf("SPLIT recovery @ %d tenants", tn)] = splitRec
		r.Values[fmt.Sprintf("NO-SPLIT recovery @ %d tenants", tn)] = noSplitRec
		r.Values[fmt.Sprintf("makespan @ %d tenants", tn)] = float64(free.Makespan)
		if c.Speculation {
			launched, wasted := 0, 0
			for _, tr := range free.Tenants {
				launched += tr.SpeculativeLaunched
				wasted += tr.SpeculativeWasted
			}
			r.Values[fmt.Sprintf("speculative launched @ %d tenants", tn)] = float64(launched)
			r.Values[fmt.Sprintf("speculative wasted @ %d tenants", tn)] = float64(wasted)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", tn),
			fmt.Sprintf("%.0f%%", 100*util),
			textplot.Num(splitRec),
			textplot.Num(noSplitRec),
		})
	}
	r.Text = textplot.Table(r.Name+" (recovery seconds by tenant count)",
		[]string{"tenants", "utilization", "SPLIT recovery", "NO-SPLIT recovery"}, rows)
	return r, nil
}

// sessionUtilization is the shared-cluster busy fraction of one session:
// total task-occupied slot-seconds across every tenant, over the session
// makespan times the cluster's slot capacity.
func sessionUtilization(mr *mapreduce.MultiResult, ccfg cluster.Config) float64 {
	var busy float64
	for _, tr := range mr.Tenants {
		for _, ts := range tr.Recorder.Tasks {
			busy += float64(ts.End - ts.Start)
		}
	}
	capacity := float64(mr.Makespan) * float64(ccfg.Nodes) * float64(ccfg.MapSlots+ccfg.ReduceSlots)
	if capacity <= 0 {
		return 0
	}
	return busy / capacity
}
