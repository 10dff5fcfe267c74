package experiments

import (
	"fmt"

	"rcmp/internal/failure"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
	"rcmp/internal/textplot"
)

// scenarios.go holds the multi-failure scenario experiments built on the
// failure-schedule engine: DoubleFailure pins the nested case the paper's
// Figure 9 calls out (a second failure landing inside the recomputation
// cascade of the first), and TraceReplay drives the simulator with
// schedules sampled from the Figure-2 STIC/SUG@R traces to estimate the
// recomputation work an operator pays per day.

// DoubleFailure measures the nested double failure as a first-class
// scenario: by default the first failure hits the chain's middle job and
// the second lands one started run later — which, because a detected RCMP
// failure cancels the running job and immediately starts recomputation
// runs, is always inside the recovery cascade. RCMP with and without
// reducer splitting is compared against Hadoop REPL-3 under the identical
// schedule. Config.Schedule replaces the default schedule; Config.FailureAt
// moves the first failure (the second always trails it by one run).
func DoubleFailure(c Config) (*Result, error) {
	st := sticSetup(c, 1, 1)
	sched := c.Schedule
	if sched.Empty() {
		mid := st.cfg.NumJobs/2 + 1
		fails, err := singleFailure(c, st, mid)
		if err != nil {
			return nil, err
		}
		first := fails[0].AtRun
		sched = failure.Schedule{
			Name: fmt.Sprintf("nested-%d", first),
			Pulses: []failure.Pulse{
				{AtRun: first, After: 15, Nodes: 1},
				{AtRun: first + 1, After: 15, Nodes: 1},
			},
		}
	} else if err := validateSchedule(c, st); err != nil {
		return nil, err
	}
	r := newResult(fmt.Sprintf("DoubleFailure: schedule %s (STIC, SLOTS 1-1)", sched.Label()))
	inj := scheduleInjections(sched)

	var labels []string
	var totals []float64
	for _, s := range []strategy{rcmpSplit, rcmpNoSplit, hadoopRepl3} {
		stv := st.with(s)
		stv.cfg.Failures = inj
		res := run(stv)
		labels = append(labels, s.String())
		totals = append(totals, float64(res.Total))
		if s == rcmpNoSplit {
			// The nested signature: the second pulse cancels a run the first
			// failure's cascade started, so recomputation must both be
			// interrupted and resume.
			r.Values["nested cancelled recomputes"] = float64(cancelledRecomputes(res))
			r.Values["started runs"] = float64(res.StartedRuns)
		}
	}
	vals := vsBest(totals)
	for i, l := range labels {
		r.Values[l] = vals[i]
	}
	r.Text = textplot.Bars(r.Name+" (slowdown vs best)", labels, vals, 0.05)
	return r, nil
}

// cancelledRecomputes counts recomputation runs a later failure cancelled.
func cancelledRecomputes(res *mapreduce.Result) int {
	n := 0
	for _, runStat := range res.Runs {
		if runStat.Cancelled && runStat.Kind == metrics.RunRecompute {
			n++
		}
	}
	return n
}

// traceReplaySamples is how many schedules TraceReplay draws per trace;
// sampling continues (bounded) until at least one failure pulse occurred so
// the figure can never be silently failure-free.
const traceReplaySamples = 3

// TraceReplay estimates the expected recomputation work per day of
// operating an RCMP chain on the paper's clusters: failure schedules are
// sampled from the Figure-2 STIC and SUG@R traces (each started run drawing
// one trace day, so failure days arrive at their measured rate and can land
// mid-recovery), the chain is simulated under every schedule with and
// without reducer splitting, and the recomputation seconds are averaged
// over the simulated days. Multi-node outage days flow through the
// schedule's node counts, capped so the simulated cluster — an order of
// magnitude smaller than the traced ones — survives them.
func TraceReplay(c Config) (*Result, error) {
	r := newResult("TraceReplay: recomputation work per day (STIC/SUG@R schedules)")
	st := sticSetup(c, 1, 1)
	// Outage pulses may take several nodes at one instant; keep the job-1
	// input fully replicated so cascading recomputation, not input loss,
	// absorbs the damage, and bound total losses to leave a working
	// cluster.
	st.cfg.InputRepl = st.ccfg.Nodes
	budget := st.ccfg.Nodes - 2
	maxPulse := 2
	if st.ccfg.Nodes >= 8 {
		maxPulse = 3
	}

	var rows [][]string
	for _, tc := range []failure.TraceConfig{failure.STICTrace(), failure.SUGARTrace()} {
		tc.Seed += c.Seed
		days := 0
		pulses := 0
		work := make(map[strategy]float64)
		for s := 0; s < traceReplaySamples || (pulses == 0 && s < 4*traceReplaySamples); s++ {
			sched, err := failure.FromTrace(tc, st.cfg.NumJobs, maxPulse, c.Seed*1009+int64(s))
			if err != nil {
				return nil, err
			}
			sched = sched.Capped(budget)
			pulses += len(sched.Pulses)
			days += st.cfg.NumJobs
			for _, s := range []strategy{rcmpNoSplit, rcmpSplit} {
				stv := st.with(s)
				stv.cfg.Failures = scheduleInjections(sched)
				work[s] += recomputeSeconds(run(stv))
			}
		}
		noSplit := work[rcmpNoSplit] / float64(days)
		withSplit := work[rcmpSplit] / float64(days)
		r.Values[tc.Name+" NO-SPLIT s/day"] = noSplit
		r.Values[tc.Name+" SPLIT s/day"] = withSplit
		r.Values[tc.Name+" SPLIT/NO-SPLIT"] = withSplit / noSplit
		r.Values[tc.Name+" pulses"] = float64(pulses)
		rows = append(rows, []string{tc.Name,
			textplot.Num(noSplit), textplot.Num(withSplit),
			textplot.Num(withSplit / noSplit), fmt.Sprintf("%d", pulses)})
	}
	r.Text = textplot.Table(r.Name+" (mean recompute seconds per simulated day)",
		[]string{"trace", "NO-SPLIT", "SPLIT", "SPLIT/NO-SPLIT", "pulses"}, rows)
	return r, nil
}

// recomputeSeconds sums the durations of a chain's recomputation runs —
// the work that exists only because failures forced the cascade.
func recomputeSeconds(res *mapreduce.Result) float64 {
	total := 0.0
	for _, runStat := range res.Runs {
		if runStat.Kind == metrics.RunRecompute && !runStat.Cancelled {
			total += runStat.Duration()
		}
	}
	return total
}
