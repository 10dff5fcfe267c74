package xval

import (
	"slices"
	"strings"
	"testing"

	"rcmp/internal/core"
	"rcmp/internal/failure"
	"rcmp/internal/metrics"
)

func TestSpecValidate(t *testing.T) {
	pulse := func(atRun int, frac float64, nodes int) failure.Schedule {
		return failure.Schedule{Pulses: []failure.Pulse{{AtRun: atRun, After: frac, Nodes: nodes}}}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the error, "" = valid
	}{
		{"defaults", func(s *Spec) {}, ""},
		{"one node", func(s *Spec) { s.Nodes = 1 }, "Nodes=1"},
		{"split and scatter", func(s *Spec) { s.Split = true; s.ScatterOnly = true }, "mutually exclusive"},
		{"detect frac zero", func(s *Spec) { s.DetectFrac = -0.1 }, "DetectFrac"},
		{"band below one", func(s *Spec) { s.Band = 0.5 }, "Band"},
		{"drop prob one", func(s *Spec) { s.DropProb = 1 }, "DropProb"},
		{"pulse past chain", func(s *Spec) { s.Schedule = pulse(9, 0.2, 1) }, "outside chain"},
		{"pulse offset late", func(s *Spec) { s.Schedule = pulse(1, 0.95, 1) }, "offset fraction"},
		{"kills everyone", func(s *Spec) { s.Schedule = pulse(1, 0.2, 4) }, "kills 4 of 4"},
		{"valid pulse", func(s *Spec) { s.Schedule = pulse(2, 0.25, 1) }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{}.withDefaults()
			tc.mut(&spec)
			err := spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestVictimsDeterministic(t *testing.T) {
	spec := Spec{Seed: 11}.withDefaults()
	sched := failure.Schedule{Pulses: []failure.Pulse{
		{AtRun: 1, After: 0.2, Nodes: 2},
		{AtRun: 3, After: 0.4, Nodes: 1},
	}}
	a := spec.victims(sched)
	b := spec.victims(sched)
	if len(a) != 2 || len(a[0]) != 2 || len(a[1]) != 1 {
		t.Fatalf("victim shape %v", a)
	}
	seen := map[int]bool{}
	for i := range a {
		for j := range a[i] {
			v := a[i][j]
			if v != b[i][j] {
				t.Fatalf("victims not deterministic: %v vs %v", a, b)
			}
			if v < 0 || v >= spec.Nodes || seen[v] {
				t.Fatalf("victim %d out of range or repeated in %v", v, a)
			}
			seen[v] = true
		}
	}
	other := Spec{Seed: 12}.withDefaults()
	if c := other.victims(sched); c[0][0] == a[0][0] && c[0][1] == a[0][1] && c[1][0] == a[1][0] {
		t.Fatalf("different seeds picked identical victims %v", c)
	}
}

func TestOffsetSweep(t *testing.T) {
	scheds := OffsetSweep(2, []float64{0.25, 0.5})
	if len(scheds) != 2 {
		t.Fatalf("got %d schedules", len(scheds))
	}
	if scheds[0].Label() != "r2@0.25" || scheds[1].Label() != "r2@0.50" {
		t.Fatalf("labels %q, %q", scheds[0].Label(), scheds[1].Label())
	}
	for i, want := range []float64{0.25, 0.5} {
		p := scheds[i].Pulses[0]
		if p.AtRun != 2 || p.After != want || p.Nodes != 1 {
			t.Fatalf("pulse %d = %+v", i, p)
		}
	}
}

// TestCompareNamesFirstDivergence holds the two comparisons' reports: a
// divergent step names its job and the differing partitions, and a run
// sequence that differs in one run's kind or cancelled flag names that
// run's index, job and both kinds.
func TestCompareNamesFirstDivergence(t *testing.T) {
	ep := core.Episode{Frontier: 2, RestartJob: 2, Steps: []core.StepDecision{{
		Job: 1, Partitions: []int{0, 1}, Splits: []int{1, 2}, RerunParts: []int{0}, ReusedParts: []int{1},
	}}}
	twin := ep
	twin.Steps = slices.Clone(ep.Steps)
	if ok, msg := compareEpisodes([]core.Episode{ep}, []core.Episode{twin}); !ok {
		t.Fatalf("identical episodes compared unequal: %s", msg)
	}
	twin.Steps[0].Partitions = []int{1}
	twin.Steps[0].Splits = []int{2}
	if ok, msg := compareEpisodes([]core.Episode{ep}, []core.Episode{twin}); ok || msg != "episode 0: step 0 (job 1) regenerated partitions: sim [0 1], dmr [1]" {
		t.Fatalf("divergence not reported: ok=%v msg=%q", ok, msg)
	}

	// 1ini 2ini✗ 1rec 2res 3ini
	runs := []startedRun{
		{1, metrics.RunInitial, false}, {2, metrics.RunInitial, true},
		{1, metrics.RunRecompute, false}, {2, metrics.RunRestart, false}, {3, metrics.RunInitial, false},
	}
	if msg := compareRuns(runs, slices.Clone(runs)); msg != "" {
		t.Fatalf("identical run sequences compared unequal: %s", msg)
	}
	for _, c := range []struct {
		edit func([]startedRun)
		n    int // runs kept on the dmr side
		want string
	}{
		{func(r []startedRun) { r[3].kind = metrics.RunInitial }, 5, "run 4: sim job 2 restart, dmr job 2 initial"},
		{func(r []startedRun) { r[1].cancelled = false }, 5, "run 2: sim job 2 initial (cancelled), dmr job 2 initial"},
		{func([]startedRun) {}, 4, "run 5: sim job 3 initial, dmr none"},
	} {
		dmr := slices.Clone(runs)
		c.edit(dmr)
		if got := compareRuns(runs, dmr[:c.n]); got != c.want {
			t.Errorf("compareRuns = %q, want %q", got, c.want)
		}
	}
}

// TestCrossValidation is the tentpole acceptance test: one shared spec runs
// through both engines across two failure offsets, and the recovery
// decisions must be identical — same frontier, same regenerated partitions,
// same surviving map outputs reused — with slowdowns inside the band and
// the real runtime's output byte-identical to its failure-free baseline.
func TestCrossValidation(t *testing.T) {
	spec := Spec{Seed: 7}
	rep, err := Sweep(spec, OffsetSweep(2, []float64{0.25, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("engines diverge:\n%s", rep.Format())
	}
	for _, c := range rep.Cases {
		if len(c.SimEpisodes) == 0 {
			t.Fatalf("case %s: no recovery episode captured:\n%s", c.Schedule, rep.Format())
		}
		// Surviving-branch reuse must actually happen: with persisted map
		// outputs on, a single-node loss re-runs only the victim's share.
		reused := false
		for _, ep := range c.DMREpisodes {
			for _, st := range ep.Steps {
				if len(st.ReusedParts) > 0 {
					reused = true
				}
			}
		}
		if !reused {
			t.Errorf("case %s: no surviving map outputs reused:\n%s", c.Schedule, rep.Format())
		}
	}
}

// TestCrossValidationUnderChaos re-runs one case with the chaos transport
// interposed on the dmr side (latency + jitter, retries armed): the
// decisions must not change — fault injection below the detection timeout
// is invisible to recovery planning.
func TestCrossValidationUnderChaos(t *testing.T) {
	spec := Spec{Seed: 7, Chaos: true, ChaosSeed: 3}
	rep, err := Sweep(spec, OffsetSweep(2, []float64{0.25}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("engines diverge under chaos:\n%s", rep.Format())
	}
}
