// plan.go is the capacity-planning entry point behind rcmpserve's
// /v1/plan endpoint: "will SPLIT recovery hold my deadline at N nodes and
// T tenants?" answered by the analytic twin, so a planning sweep over
// cluster sizes the DES refuses (10⁵–10⁶ nodes) costs microseconds per
// point. CapacityPlan is deliberately NOT in the registry: it is not a
// figure of the paper, and registering it would drag it into the golden
// digests and every registry-wide sweep.
package experiments

import (
	"fmt"

	"rcmp/internal/analytic"
	"rcmp/internal/mapreduce"
	"rcmp/internal/middleware"
	"rcmp/internal/textplot"
)

// PlanDeadline carries the one input ConfigDigest does not: the deadline
// (simulated seconds) the plan verdict is judged against. Zero means "no
// deadline — just report the numbers".
type PlanDeadline float64

// PlanDigest keys one capacity-planning answer for the server's result
// cache. It reuses ConfigDigest — the plan is a pure function of the same
// Config dimensions — under a reserved spec key that folds the deadline
// in; the "plan[" prefix cannot collide with registry keys (registry keys
// never contain '[').
func PlanDigest(c Config, deadline PlanDeadline) string {
	return ConfigDigest(fmt.Sprintf("plan[deadline=%g]", float64(deadline)), c)
}

// CapacityPlan evaluates the paper's shared-cluster chain workload (the
// MultiTenant experiment's setup: SLOTS 2-2 STIC, a failure while the
// second job runs) at the Config's nodes/tenants point on the analytic
// engine, for both recovery strategies. Values carry the session
// makespans, recovery costs and utilization; when deadline > 0 the
// verdicts "SPLIT meets deadline"/"NO-SPLIT meets deadline" (0 or 1) are
// added and the Text table says which strategy holds the line.
//
// The Engine field of the Config is ignored: a capacity plan is an
// analytic answer by definition (the DES cannot reach the advertised node
// range), and the digest keyspace stays one-dimensional for it.
func CapacityPlan(c Config, deadline PlanDeadline) (*Result, error) {
	c.Engine = EngineAnalytic
	if err := c.validate(); err != nil {
		return nil, err
	}
	if deadline < 0 {
		return nil, fmt.Errorf("experiments: negative deadline %g", float64(deadline))
	}
	tenants := c.Tenants
	if tenants == 0 {
		tenants = 1
	}

	st := sticSetup(c, 2, 2)
	fails, err := failureScenario(c, st, 2)
	if err != nil {
		return nil, err
	}
	jobs := middleware.Chain(st.cfg.NumJobs)

	r := newResult(fmt.Sprintf("CapacityPlan: %s, %d tenants", st.name, tenants))
	plan := func(s strategy) (analytic.SessionPlan, error) {
		cfg := st.with(s).cfg
		cfg.Failures = fails
		return analytic.PlanSession(st.ccfg, mapreduce.GraphConfig{ChainConfig: cfg, Jobs: jobs}, tenants)
	}
	splitPlan, err := plan(rcmpSplit)
	if err != nil {
		return nil, err
	}
	noSplitPlan, err := plan(rcmpNoSplit)
	if err != nil {
		return nil, err
	}

	r.Values["free makespan"] = splitPlan.FreeMakespan
	r.Values["utilization"] = splitPlan.Utilization
	r.Values["SPLIT makespan"] = splitPlan.Makespan
	r.Values["SPLIT recovery"] = splitPlan.Recovery
	r.Values["NO-SPLIT makespan"] = noSplitPlan.Makespan
	r.Values["NO-SPLIT recovery"] = noSplitPlan.Recovery

	verdict := func(p analytic.SessionPlan) string {
		if deadline == 0 {
			return "-"
		}
		if p.Makespan <= float64(deadline) {
			return "meets deadline"
		}
		return "misses deadline"
	}
	if deadline > 0 {
		r.Values["deadline"] = float64(deadline)
		r.Values["SPLIT meets deadline"] = boolVal(splitPlan.Makespan <= float64(deadline))
		r.Values["NO-SPLIT meets deadline"] = boolVal(noSplitPlan.Makespan <= float64(deadline))
	}
	rows := [][]string{
		{"SPLIT", textplot.Num(splitPlan.Makespan), textplot.Num(splitPlan.Recovery), verdict(splitPlan)},
		{"NO-SPLIT", textplot.Num(noSplitPlan.Makespan), textplot.Num(noSplitPlan.Recovery), verdict(noSplitPlan)},
	}
	r.Text = textplot.Table(
		fmt.Sprintf("%s (utilization %.0f%%, failure-free %s)", r.Name, 100*splitPlan.Utilization, textplot.Num(splitPlan.FreeMakespan)),
		[]string{"strategy", "makespan", "recovery", "verdict"}, rows)
	return r, nil
}

// boolVal encodes a verdict into the float Values map: 1 true, 0 false.
func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
