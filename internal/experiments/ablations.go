// ablations.go holds the ablations of the design choices the evaluation
// rests on: reducer splitting against scatter-only, the split ratio,
// map-output reuse, the I/O shape, checkpoint reclamation, speculation,
// data locality and the failure detection timeout.
package experiments

import (
	"fmt"

	"rcmp/internal/cluster"
	"rcmp/internal/des"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
	"rcmp/internal/textplot"
)

// ---- Ablations (DESIGN.md Section 5) ----

// AblationScatterVsSplit compares reducer splitting against the
// scatter-only alternative of Section IV-B2 under the late failure.
func AblationScatterVsSplit(c Config) (*Result, error) {
	r := newResult(failureNote(c, "Ablation: split vs scatter-only vs none"))
	st := sticSetup(c, 1, 1)
	fails, err := failureScenario(c, st, st.cfg.NumJobs)
	if err != nil {
		return nil, err
	}
	st.cfg.Failures = fails

	labels := []string{"NO-SPLIT", "SCATTER", "SPLIT"}
	var sts []setup
	for _, s := range []strategy{rcmpNoSplit, scatter, rcmpSplit} {
		sts = append(sts, st.with(s))
	}
	var totals []float64
	for _, res := range runAll(sts) {
		totals = append(totals, float64(res.Total))
	}
	vals := vsBest(totals)
	for i, l := range labels {
		r.Values[l] = vals[i]
	}
	r.Text = textplot.Bars(r.Name+" (total time vs best)", labels, vals, 0.05)
	return r, nil
}

// AblationSplitRatio sweeps the split ratio under the late failure.
func AblationSplitRatio(c Config) (*Result, error) {
	r := newResult(failureNote(c, "Ablation: split ratio sweep"))
	st := sticSetup(c, 1, 1)
	fails, err := failureScenario(c, st, st.cfg.NumJobs)
	if err != nil {
		return nil, err
	}
	st.cfg.Failures = fails
	ratios := []int{1, 2, 4, 8}
	if n := st.ccfg.Nodes - 1; n < 8 {
		ratios = []int{1, 2, n}
	}
	sts := make([]setup, len(ratios))
	for i, k := range ratios {
		sts[i] = st
		if k > 1 {
			sts[i].cfg.Split = true
			sts[i].cfg.SplitRatio = k
		}
	}
	runs := runAll(sts)
	var labels []string
	var vals []float64
	for i, k := range ratios {
		res := runs[i]
		labels = append(labels, fmt.Sprintf("split %d", k))
		vals = append(vals, float64(res.Total))
		r.Values[fmt.Sprintf("split %d", k)] = float64(res.Total)
	}
	r.Text = textplot.Bars(r.Name+" (total seconds)", labels, vals, vals[len(vals)-1]/40)
	return r, nil
}

// AblationMapReuse isolates the benefit of reusing persisted map outputs.
func AblationMapReuse(c Config) (*Result, error) {
	r := newResult(failureNote(c, "Ablation: persisted map output reuse"))
	st := sticSetup(c, 1, 1)
	fails, err := failureScenario(c, st, st.cfg.NumJobs)
	if err != nil {
		return nil, err
	}
	st = st.with(rcmpSplit)
	st.cfg.Failures = fails

	stNo := st
	stNo.cfg.NoMapOutputReuse = true
	res := runAll([]setup{st, stNo})
	withReuse, without := float64(res[0].Total), float64(res[1].Total)
	r.Values["with reuse"] = 1
	r.Values["without reuse"] = without / withReuse
	r.Text = textplot.Bars(r.Name+" (total time vs with-reuse)",
		[]string{"with reuse", "without reuse"}, []float64{1, without / withReuse}, 0.05)
	return r, nil
}

// AblationIORatio tests the Section V-A claim that RCMP's advantage over
// replication grows when the job output is large relative to input and
// shuffle (ratios like Pig Cogroup or web indexing): the replicated bytes
// scale with the output term only.
//
// The I/O shape is applied to a single representative job, the way the
// paper characterizes workloads (each job of its chains has the same
// per-job shape; the ratio is a property of one job's input:shuffle:output,
// not of the chain). The previous harness applied the ratio to every job of
// the 7-job chain, compounding it — a 1:1:2 cogroup shape grew data ~128x
// by the last job, which both distorted the claim under test (the last jobs
// dominated every total) and made the experiment pathologically slow at
// paper scale. One job at the paper's per-node volume reproduces the
// claim's mechanism exactly: RCMP writes the output once while REPL-3
// writes it three times, so the gap widens with the output term.
func AblationIORatio(c Config) (*Result, error) {
	r := newResult("Ablation: input/shuffle/output ratio")
	type shape struct {
		name     string
		mapRatio float64 // shuffle bytes per input byte
		redRatio float64 // output bytes per shuffle byte
	}
	shapes := []shape{
		{"1:1:0.3 (filter)", 1, 0.3},
		{"1:1:1 (sort)", 1, 1},
		{"1:1:2 (cogroup)", 1, 2},
	}
	var sts []setup
	for _, sh := range shapes {
		rcmp := sticSetup(c, 1, 1)
		rcmp.cfg.NumJobs = 1
		rcmp.cfg.MapOutputRatio = sh.mapRatio
		rcmp.cfg.ReduceOutputRatio = sh.redRatio
		sts = append(sts, rcmp, rcmp.with(hadoopRepl3))
	}
	res := runAll(sts)
	var labels []string
	var vals []float64
	for i, sh := range shapes {
		rcmpT, replT := float64(res[2*i].Total), float64(res[2*i+1].Total)

		labels = append(labels, sh.name)
		vals = append(vals, replT/rcmpT)
		r.Values["REPL-3/RCMP @ "+sh.name] = replT / rcmpT
	}
	r.Text = textplot.Bars(r.Name+" (REPL-3 slowdown vs RCMP, single job, no failures)", labels, vals, 0.05)
	return r, nil
}

// AblationReclamation measures the hybrid checkpoint + storage reclamation
// mode of Section IV-C: performance must be indistinguishable from plain
// hybrid (reclamation is metadata-only) while intermediate files vanish.
func AblationReclamation(c Config) (*Result, error) {
	r := newResult(failureNote(c, "Ablation: checkpoint storage reclamation"))
	st := sticSetup(c, 1, 1)
	st.cfg.HybridEveryK = 3
	st.cfg.HybridRepl = 2
	fails, err := failureScenario(c, st, st.cfg.NumJobs)
	if err != nil {
		return nil, err
	}
	st.cfg.Failures = fails
	reclaim := st
	reclaim.cfg.ReclaimAtCheckpoints = true
	res := runAll([]setup{st, reclaim})
	base, reclaimed := float64(res[0].Total), float64(res[1].Total)
	r.Values["hybrid"] = 1
	r.Values["hybrid+reclaim"] = reclaimed / base
	r.Text = textplot.Bars(r.Name+" (total time vs hybrid)",
		[]string{"hybrid", "hybrid+reclaim"}, []float64{1, reclaimed / base}, 0.05)
	return r, nil
}

// AblationSpeculation quantifies the Section III-A claim about speculative
// execution: with a straggler node it trims the tail, but a large share of
// speculative launches provide no benefit, and it cannot help at all when
// the slow task's input has no second replica.
func AblationSpeculation(c Config) (*Result, error) {
	r := newResult("Ablation: speculative execution with a straggler")
	st := sticSetup(c, 1, 1)
	st.cfg.NumJobs = 2
	st.ccfg.NodeDiskScale = map[int]float64{victim: 0.25}

	spec := st
	spec.cfg.Speculation = true
	res := runAll([]setup{st, spec})
	plain, specRes := res[0], res[1]

	r.Values["no speculation"] = 1
	r.Values["speculation"] = float64(specRes.Total) / float64(plain.Total)
	r.Values["launched"] = float64(specRes.SpeculativeLaunched)
	r.Values["wasted"] = float64(specRes.SpeculativeWasted)
	wastedFrac := 0.0
	if specRes.SpeculativeLaunched > 0 {
		wastedFrac = float64(specRes.SpeculativeWasted) / float64(specRes.SpeculativeLaunched)
	}
	r.Values["wasted fraction"] = wastedFrac
	r.Text = textplot.Bars(
		fmt.Sprintf("%s (time vs no-speculation; %d launched, %.0f%% wasted)",
			r.Name, specRes.SpeculativeLaunched, 100*wastedFrac),
		[]string{"no speculation", "speculation"},
		[]float64{1, float64(specRes.Total) / float64(plain.Total)}, 0.05)
	return r, nil
}

// AblationLocality quantifies the Section III-A claim that data locality
// matters only when the network is the bottleneck: the map-phase penalty of
// locality-blind scheduling, at increasing core oversubscription, with a
// single-replicated input so placement truly decides local versus remote.
func AblationLocality(c Config) (*Result, error) {
	r := newResult("Ablation: data locality vs network oversubscription")
	oversubs := []float64{1, 4, 16}
	var sts []setup
	for _, ov := range oversubs {
		for _, disable := range []bool{true, false} {
			st := sticSetup(c, 1, 1)
			st.cfg.NumJobs = 1
			st.cfg.InputRepl = 1
			st.cfg.DisableLocality = disable
			st.cfg.NoTaskSamples = false
			st.ccfg.Oversubscription = ov
			st.ccfg.NICBW = 50 * cluster.MB
			sts = append(sts, st)
		}
	}
	mapEnd := func(res *mapreduce.Result) float64 {
		var end float64
		for _, ts := range res.Recorder.Tasks {
			if ts.Kind == metrics.TaskMap && float64(ts.End) > end {
				end = float64(ts.End)
			}
		}
		return end
	}
	res := runAll(sts)
	var labels []string
	var vals []float64
	for i, ov := range oversubs {
		penalty := mapEnd(res[2*i]) / mapEnd(res[2*i+1])
		labels = append(labels, fmt.Sprintf("oversub %.0f:1", ov))
		vals = append(vals, penalty)
		r.Values[fmt.Sprintf("penalty @ %.0f:1", ov)] = penalty
	}
	r.Text = textplot.Bars(r.Name+" (map-phase slowdown without locality)", labels, vals, 0.1)
	return r, nil
}

// AblationDetectionTimeout sweeps the failure detection timeout.
func AblationDetectionTimeout(c Config) (*Result, error) {
	r := newResult(failureNote(c, "Ablation: failure detection timeout"))
	timeouts := []float64{10, 30, 60, 120}
	// A timeout whose failure scenario is invalid ends the list, and its
	// error comes after any error of the runs before it.
	var sts []setup
	var scenarioErr error
	for _, to := range timeouts {
		st := sticSetup(c, 1, 1).with(rcmpSplit)
		st.ccfg.FailureDetectionTimeout = des.Time(to)
		fails, err := failureScenario(c, st, st.cfg.NumJobs)
		if err != nil {
			scenarioErr = err
			break
		}
		st.cfg.Failures = fails
		sts = append(sts, st)
	}
	runs := runAll(sts)
	if scenarioErr != nil {
		return nil, scenarioErr
	}
	var labels []string
	var vals []float64
	for i, to := range timeouts {
		res := runs[i]
		labels = append(labels, fmt.Sprintf("%.0fs", to))
		vals = append(vals, float64(res.Total))
		r.Values[fmt.Sprintf("timeout %.0fs", to)] = float64(res.Total)
	}
	r.Text = textplot.Bars(r.Name+" (total seconds)", labels, vals, vals[0]/40)
	return r, nil
}
