package xval

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rcmp/internal/core"
	"rcmp/internal/dmr"
	"rcmp/internal/failure"
	"rcmp/internal/workload"
)

// CaseResult is the verdict for one failure schedule.
type CaseResult struct {
	Schedule string

	// SimEpisodes / DMREpisodes are each engine's record of the recovery
	// plans its cursor adopted.
	SimEpisodes []core.Episode
	DMREpisodes []core.Episode

	// DecisionsEqual is the headline check: both engines adopted identical
	// plans and started the same run sequence (job, kind, cancelled).
	// Mismatch names the first divergence otherwise.
	DecisionsEqual bool
	Mismatch       string `json:",omitempty"`

	SimStartedRuns int
	DMRStartedRuns int

	// SimSlowdown / DMRSlowdown are each engine's makespan divided by its
	// own failure-free baseline; LogRatio is ln(DMRSlowdown/SimSlowdown)
	// and WithinBand holds when |LogRatio| <= ln(Band).
	SimSlowdown float64
	DMRSlowdown float64
	LogRatio    float64
	WithinBand  bool

	// DigestsMatch reports that the dmr case produced byte-identical final
	// output to the dmr failure-free baseline — end-to-end partition
	// conservation on the real runtime.
	DigestsMatch bool

	OK bool
}

// Report is the outcome of a cross-validation sweep.
type Report struct {
	Spec Spec

	// Per-run failure-free durations, each engine on its own clock
	// (simulated seconds / wall seconds). All fraction scaling derives
	// from these.
	SimBaselineRuns []float64
	DMRBaselineRuns []float64

	// EffectiveDetectFrac is the detection fraction actually applied —
	// Spec.DetectFrac, raised if the dmr floor (minDMRDetect) demanded it.
	// SimDetect / DMRDetect are the resulting absolute timeouts.
	EffectiveDetectFrac float64
	SimDetect           float64
	DMRDetect           float64

	Cases []CaseResult
	OK    bool
}

// Sweep runs the failure-free baselines once, then cross-validates every
// schedule against them.
func Sweep(spec Spec, schedules []failure.Schedule) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for _, sched := range schedules {
		if err := spec.validateSchedule(sched); err != nil {
			return nil, err
		}
	}

	simBase, err := runSim(spec, failure.Schedule{}, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	dmrBase, err := runDMR(spec, baselineTiming(), failure.Schedule{}, nil, nil)
	if err != nil {
		return nil, err
	}
	if len(simBase.episodes) > 0 || len(dmrBase.episodes) > 0 {
		return nil, fmt.Errorf("xval: failure-free baseline recovered (sim %d, dmr %d episodes)",
			len(simBase.episodes), len(dmrBase.episodes))
	}
	if len(simBase.runs) != spec.Jobs || len(dmrBase.runs) != spec.Jobs {
		return nil, fmt.Errorf("xval: baseline run counts sim %d / dmr %d, want %d",
			len(simBase.runs), len(dmrBase.runs), spec.Jobs)
	}

	rep := &Report{Spec: spec, OK: true}
	rep.SimBaselineRuns = simBase.runSeconds
	for _, d := range dmrBase.runDurations {
		rep.DMRBaselineRuns = append(rep.DMRBaselineRuns, d.Seconds())
	}

	// Scale the detection timeout as one shared fraction of the shortest
	// failure-free run. The dmr side floors the absolute timeout so its
	// derived heartbeat cadence stays schedulable; when the floor bites,
	// the raised fraction is applied to BOTH engines to keep detection at
	// the same relative point of the computation.
	minSim := minOf(rep.SimBaselineRuns)
	minDMR := minOf(rep.DMRBaselineRuns)
	frac := spec.DetectFrac
	if floor := minDMRDetect.Seconds() / minDMR; floor > frac {
		frac = floor
	}
	rep.EffectiveDetectFrac = frac
	rep.SimDetect = frac * minSim
	rep.DMRDetect = frac * minDMR

	timing := caseTiming(time.Duration(rep.DMRDetect * float64(time.Second)))
	for _, sched := range schedules {
		cr, err := runCase(spec, sched, rep, timing, simBase, dmrBase)
		if err != nil {
			return nil, err
		}
		rep.Cases = append(rep.Cases, *cr)
		if !cr.OK {
			rep.OK = false
		}
	}
	return rep, nil
}

// baselineTiming is generous: failure-free runs never consult the
// detection machinery, so the baseline only needs liveness.
func baselineTiming() dmr.Timing {
	return dmr.Timing{
		HeartbeatInterval: 20 * time.Millisecond,
		DetectionTimeout:  500 * time.Millisecond,
		DialTimeout:       2 * time.Second,
		CallTimeout:       10 * time.Second,
		TaskTimeout:       time.Minute,
	}
}

func caseTiming(detect time.Duration) dmr.Timing {
	hb := detect / 5
	if hb < 2*time.Millisecond {
		hb = 2 * time.Millisecond
	}
	return dmr.Timing{
		HeartbeatInterval: hb,
		DetectionTimeout:  detect,
		DialTimeout:       2 * time.Second,
		CallTimeout:       10 * time.Second,
		TaskTimeout:       time.Minute,
	}
}

func runCase(spec Spec, sched failure.Schedule, rep *Report, timing dmr.Timing, simBase *simOutcome, dmrBase *dmrOutcome) (*CaseResult, error) {
	kills := spec.victims(sched)
	simOffsets := make([]float64, len(sched.Pulses))
	dmrOffsets := make([]time.Duration, len(sched.Pulses))
	for i, p := range sched.Pulses {
		simOffsets[i] = p.After * rep.SimBaselineRuns[p.AtRun-1]
		dmrOffsets[i] = time.Duration(p.After * rep.DMRBaselineRuns[p.AtRun-1] * float64(time.Second))
	}

	simCase, err := runSim(spec, sched, kills, simOffsets, rep.SimDetect)
	if err != nil {
		return nil, err
	}
	dmrCase, err := runDMR(spec, timing, sched, kills, dmrOffsets)
	if err != nil {
		return nil, err
	}

	cr := &CaseResult{
		Schedule:       sched.Label(),
		SimEpisodes:    simCase.episodes,
		DMREpisodes:    dmrCase.episodes,
		SimStartedRuns: len(simCase.runs),
		DMRStartedRuns: len(dmrCase.runs),
	}
	cr.DecisionsEqual, cr.Mismatch = compareEpisodes(simCase.episodes, dmrCase.episodes)
	if cr.DecisionsEqual {
		cr.Mismatch = compareRuns(simCase.runs, dmrCase.runs)
		cr.DecisionsEqual = cr.Mismatch == ""
	}

	cr.SimSlowdown = simCase.total / simBase.total
	cr.DMRSlowdown = dmrCase.total.Seconds() / dmrBase.total.Seconds()
	cr.LogRatio = math.Log(cr.DMRSlowdown / cr.SimSlowdown)
	cr.WithinBand = math.Abs(cr.LogRatio) <= math.Log(spec.Band)

	cr.DigestsMatch = digestsEqual(dmrCase.digests, dmrBase.digests)
	cr.OK = cr.DecisionsEqual && cr.WithinBand && cr.DigestsMatch
	return cr, nil
}

func digestsEqual(got, want []workload.Digest) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Format renders the report for terminals.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cross-validation: %d nodes, %d jobs, %d reducers, seed %d\n",
		r.Spec.Nodes, r.Spec.Jobs, r.Spec.Reducers, r.Spec.Seed)
	fmt.Fprintf(&b, "  baseline runs  sim %s s   dmr %s s\n",
		formatRuns(r.SimBaselineRuns), formatRuns(r.DMRBaselineRuns))
	fmt.Fprintf(&b, "  detection      frac %.3f  sim %.2fs  dmr %.0fms\n",
		r.EffectiveDetectFrac, r.SimDetect, r.DMRDetect*1000)
	for _, c := range r.Cases {
		status := "OK"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "case %-12s %-4s decisions=%v band=%v digests=%v runs sim/dmr %d/%d slowdown sim %.2f dmr %.2f\n",
			c.Schedule, status, c.DecisionsEqual, c.WithinBand, c.DigestsMatch,
			c.SimStartedRuns, c.DMRStartedRuns, c.SimSlowdown, c.DMRSlowdown)
		if c.Mismatch != "" {
			fmt.Fprintf(&b, "  mismatch: %s\n", c.Mismatch)
		}
		for i, ep := range c.SimEpisodes {
			fmt.Fprintf(&b, "  episode %d: frontier %d, %d steps", i, ep.Frontier, len(ep.Steps))
			for _, st := range ep.Steps {
				fmt.Fprintf(&b, "  [job %d regen %v splits %v rerun %v reuse %v]",
					st.Job, st.Partitions, st.Splits, st.RerunParts, st.ReusedParts)
			}
			b.WriteByte('\n')
		}
	}
	if r.OK {
		b.WriteString("PASS: engines agree\n")
	} else {
		b.WriteString("FAIL: engines diverge\n")
	}
	return b.String()
}

func formatRuns(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
