package runner

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/failure"
)

// TestDeterminismAcrossWorkerCounts is the core guarantee: the same jobs
// with the same seeds produce byte-identical text and JSON whether they run
// on one worker or eight.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	grid := Grid{
		Specs:  experiments.Registry(),
		Scales: []experiments.Scale{experiments.ScaleQuick},
		Seeds:  []int64{0, 3},
	}
	serial := (&Runner{Workers: 1}).Run(grid.Jobs())
	parallel := (&Runner{Workers: 8}).Run(grid.Jobs())

	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name {
			t.Fatalf("result %d ordering differs: %q vs %q", i, s.Name, p.Name)
		}
		if s.Err != "" || p.Err != "" {
			t.Fatalf("%s failed: serial=%q parallel=%q", s.Name, s.Err, p.Err)
		}
		if s.Res.Text != p.Res.Text {
			t.Errorf("%s: Text differs between 1 and 8 workers:\n%s\n----\n%s",
				s.Name, s.Res.Text, p.Res.Text)
		}
	}
	js, err := MarshalJSONDeterministic(serial)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := MarshalJSONDeterministic(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jp) {
		t.Fatal("deterministic JSON differs between 1 and 8 workers")
	}
}

// TestSeedChangesSimulatedFigures checks the seed actually reaches the
// simulations: a different seed must change at least one figure payload
// (the failure traces of Fig2 are directly seed-driven).
func TestSeedChangesSimulatedFigures(t *testing.T) {
	fig2, ok := experiments.Lookup("2")
	if !ok {
		t.Fatal("Fig2 not registered")
	}
	a, errA := fig2.Run(experiments.Config{Scale: experiments.ScaleQuick, Seed: 0})
	b, errB := fig2.Run(experiments.Config{Scale: experiments.ScaleQuick, Seed: 1})
	if errA != nil || errB != nil {
		t.Fatalf("Fig2 errored: %v / %v", errA, errB)
	}
	if a.Text == b.Text {
		t.Fatal("seed 0 and seed 1 produced identical Fig2 traces; seed not threaded")
	}
}

// TestRunPreservesInputOrder gives early jobs the longest work so they
// finish last, then checks results still come back in input order.
func TestRunPreservesInputOrder(t *testing.T) {
	const n = 12
	var started atomic.Int32
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("job-%02d", i),
			Run: func(experiments.Config) (*experiments.Result, error) {
				started.Add(1)
				// Earlier jobs sleep longer, inverting completion order.
				time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
				return &experiments.Result{Name: fmt.Sprintf("job-%02d", i)}, nil
			},
		}
	}
	results := (&Runner{Workers: 4}).Run(jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		want := fmt.Sprintf("job-%02d", i)
		if res.Name != want || res.Res == nil || res.Res.Name != want {
			t.Fatalf("result %d = %q (res %v), want %q", i, res.Name, res.Res, want)
		}
	}
	if got := started.Load(); got != n {
		t.Fatalf("ran %d jobs, want %d", got, n)
	}
}

// TestRunUsesThePool proves jobs overlap: with W workers, W long-running
// jobs must all be in flight at once.
func TestRunUsesThePool(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	inFlight, peak := 0, 0
	jobs := make([]Job, workers*3)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("j%d", i),
			Run: func(experiments.Config) (*experiments.Result, error) {
				mu.Lock()
				inFlight++
				if inFlight > peak {
					peak = inFlight
				}
				mu.Unlock()
				time.Sleep(20 * time.Millisecond)
				mu.Lock()
				inFlight--
				mu.Unlock()
				return &experiments.Result{}, nil
			},
		}
	}
	(&Runner{Workers: workers}).Run(jobs)
	if peak < 2 {
		t.Fatalf("peak concurrency %d; worker pool never overlapped jobs", peak)
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", peak, workers)
	}
}

// TestPanicIsIsolated: one panicking experiment is reported in its slot and
// does not poison the others or the pool.
func TestPanicIsIsolated(t *testing.T) {
	jobs := []Job{
		{Name: "ok-1", Run: func(experiments.Config) (*experiments.Result, error) {
			return &experiments.Result{Name: "ok-1"}, nil
		}},
		{Name: "boom", Run: func(experiments.Config) (*experiments.Result, error) {
			panic("simulator bug")
		}},
		{Name: "ok-2", Run: func(experiments.Config) (*experiments.Result, error) {
			return &experiments.Result{Name: "ok-2"}, nil
		}},
	}
	results := (&Runner{Workers: 2}).Run(jobs)
	if results[0].Err != "" || results[2].Err != "" {
		t.Fatalf("healthy jobs errored: %q / %q", results[0].Err, results[2].Err)
	}
	if results[1].Res != nil || !strings.Contains(results[1].Err, "simulator bug") {
		t.Fatalf("panic not captured: res=%v err=%q", results[1].Res, results[1].Err)
	}
}

// TestGridExpansion checks the sweep cross product and name uniqueness.
func TestGridExpansion(t *testing.T) {
	specs := experiments.Registry()[:3]
	g := Grid{
		Specs:  specs,
		Scales: []experiments.Scale{experiments.ScalePaper, experiments.ScaleQuick},
		Seeds:  []int64{0, 1, 2},
		Axes:   experiments.Axes{"failure-at": {{FailureAt: 0}, {FailureAt: 3}}},
	}
	jobs := g.Jobs()
	want := 3 * 2 * 3 * 2
	if len(jobs) != want {
		t.Fatalf("grid expanded to %d jobs, want %d", len(jobs), want)
	}
	seen := make(map[string]bool)
	for _, j := range jobs {
		if seen[j.Name] {
			t.Fatalf("duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
	}
	// Defaults: empty dimensions collapse to one combination each.
	def := Grid{Specs: specs}.Jobs()
	if len(def) != len(specs) {
		t.Fatalf("default grid expanded to %d jobs, want %d", len(def), len(specs))
	}
	for i, j := range def {
		if j.Name != specs[i].Name {
			t.Fatalf("default job %d named %q, want bare %q", i, j.Name, specs[i].Name)
		}
	}
}

// TestBadGridPointReportsErrorNotPanic is the schedule-engine acceptance
// gate: a sweep whose FailureAts dimension generates an out-of-range
// injection point must complete, with exactly the invalid jobs recorded as
// per-job errors and every other job producing its normal result.
func TestBadGridPointReportsErrorNotPanic(t *testing.T) {
	sp, ok := experiments.Lookup("8b")
	if !ok {
		t.Fatal("spec 8b missing")
	}
	g := Grid{
		Specs:  []experiments.Spec{sp},
		Scales: []experiments.Scale{experiments.ScaleQuick},
		Axes:   experiments.Axes{"failure-at": {{FailureAt: 2}, {FailureAt: 99}}}, // 99 exceeds every quick-scale chain
	}
	results := (&Runner{Workers: 2}).Run(g.Jobs())
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Err != "" || results[0].Res == nil {
		t.Fatalf("valid grid point failed: %q", results[0].Err)
	}
	if results[1].Res != nil || !strings.Contains(results[1].Err, "exceeds") {
		t.Fatalf("invalid grid point: res=%v err=%q, want a recorded config error", results[1].Res, results[1].Err)
	}
	// The sweep's JSON report must carry the error in place.
	b, err := MarshalJSONDeterministic(results)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "exceeds") {
		t.Fatalf("JSON report lost the per-job error:\n%s", b)
	}
}

// TestGridScheduleDimension sweeps failure schedules like any other
// dimension and checks they reach the simulations and the job names.
func TestGridScheduleDimension(t *testing.T) {
	// Fig12 is RCMP-only, so the double-failure schedule stresses the
	// cascade without destroying a replication baseline's data.
	sp, ok := experiments.Lookup("12")
	if !ok {
		t.Fatal("spec 12 missing")
	}
	double, err := failure.ParseSchedule("2@15,3@20")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Specs:  []experiments.Spec{sp},
		Scales: []experiments.Scale{experiments.ScaleQuick},
		Axes:   experiments.Axes{"schedule": {{}, {Schedule: double}}},
	}
	jobs := g.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("expanded to %d jobs, want 2", len(jobs))
	}
	if !strings.Contains(jobs[1].Name, "sched=2@15x1,3@20x1") {
		t.Fatalf("schedule missing from job name %q", jobs[1].Name)
	}
	results := (&Runner{Workers: 2}).Run(jobs)
	for _, res := range results {
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Name, res.Err)
		}
	}
	if results[0].Res.Text == results[1].Res.Text {
		t.Fatal("schedule override produced identical figures")
	}
	b, err := MarshalJSONDeterministic(results)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"schedule": "2@15x1,3@20x1"`) {
		t.Fatalf("JSON report missing schedule field:\n%s", b)
	}
}

// TestJSONSanitizesNonFinite: NaN and infinities must encode, as strings.
func TestJSONSanitizesNonFinite(t *testing.T) {
	res := []Result{{
		Name: "x",
		Res: &experiments.Result{
			Name:   "x",
			Values: map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1), "ok": 2.5},
		},
	}}
	b, err := MarshalJSONDeterministic(res)
	if err != nil {
		t.Fatalf("marshal failed on non-finite values: %v", err)
	}
	for _, want := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`, "2.5"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("encoded report missing %s:\n%s", want, b)
		}
	}
	// Timing must be absent from deterministic output even when set.
	res[0].Elapsed = time.Second
	b2, err := MarshalJSONDeterministic(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b2), "elapsed_ms") {
		t.Fatal("deterministic JSON leaked elapsed_ms")
	}
}

// TestPanicStackCapturedAndStrippedFromReports pins the two halves of the
// panic-diagnosis contract: Result.Err carries the message plus the stack
// at the panic site (so a server operator can diagnose a simulator bug from
// a recorded per-job error), while the deterministic JSON report keeps only
// the message line (stacks carry addresses and goroutine IDs that vary run
// to run).
func TestPanicStackCapturedAndStrippedFromReports(t *testing.T) {
	job := Job{
		Name:   "panicky",
		Config: experiments.Config{Scale: experiments.ScaleQuick},
		Run: func(experiments.Config) (*experiments.Result, error) {
			panic("simulated simulator bug")
		},
	}
	res := RunOne(job, nil)
	if res.Res != nil {
		t.Fatalf("panicking job produced a result: %+v", res.Res)
	}
	if !strings.HasPrefix(res.Err, "simulated simulator bug\n") {
		t.Fatalf("Err does not lead with the panic message: %q", res.Err)
	}
	if !strings.Contains(res.Err, "goroutine") || !strings.Contains(res.Err, "runner_test.go") {
		t.Fatalf("Err lost the stack trace: %q", res.Err)
	}
	if got := res.ErrMessage(); got != "simulated simulator bug" {
		t.Fatalf("ErrMessage() = %q", got)
	}

	// The JSON report strips the stack — and stays byte-identical across
	// two independent panics whose stacks differ in addresses.
	b1, err := MarshalJSONDeterministic([]Result{res})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b1, []byte("goroutine")) {
		t.Fatalf("report leaked a stack trace:\n%s", b1)
	}
	if !bytes.Contains(b1, []byte(`"error": "simulated simulator bug"`)) {
		t.Fatalf("report lost the panic message:\n%s", b1)
	}
	b2, err := MarshalJSONDeterministic([]Result{RunOne(job, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("panic reports differ across runs:\n%s\n----\n%s", b1, b2)
	}
}
