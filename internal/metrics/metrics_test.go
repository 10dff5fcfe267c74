package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTaskAndRunRecording(t *testing.T) {
	r := &Recorder{}
	r.AddTask(TaskSample{Kind: TaskMap, Start: 0, End: 5, RunKind: RunInitial})
	r.AddTask(TaskSample{Kind: TaskReduce, Start: 0, End: 8, RunKind: RunInitial})
	r.AddTask(TaskSample{Kind: TaskMap, Start: 2, End: 4, RunKind: RunRecompute})
	ds := r.TaskDurations(func(s TaskSample) bool { return s.Kind == TaskMap })
	if len(ds) != 2 || ds[0] != 5 || ds[1] != 2 {
		t.Fatalf("map durations %v", ds)
	}
	if got := r.TaskDurations(nil); len(got) != 3 {
		t.Fatalf("all durations %v", got)
	}

	r.AddRun(RunStat{RunIndex: 1, Job: 1, Kind: RunInitial, Start: 0, End: 100})
	r.AddRun(RunStat{RunIndex: 2, Job: 2, Kind: RunInitial, Start: 100, End: 180})
	r.AddRun(RunStat{RunIndex: 3, Job: 2, Kind: RunInitial, Start: 180, End: 200, Cancelled: true})
	r.AddRun(RunStat{RunIndex: 4, Job: 1, Kind: RunRecompute, Start: 200, End: 220})
	if got := len(r.RunsOfKind(RunInitial)); got != 2 {
		t.Fatalf("initial runs %d, want 2 (cancelled excluded)", got)
	}
	mean := r.MeanRunDuration(func(s RunStat) bool { return s.Kind == RunInitial })
	if mean != 90 {
		t.Fatalf("mean initial duration %v, want 90", mean)
	}
	if !math.IsNaN(r.MeanRunDuration(func(s RunStat) bool { return s.Job == 99 })) {
		t.Fatal("mean over empty set not NaN")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.Len() != 4 {
		t.Fatalf("len %d", c.Len())
	}
	if got := c.At(2); got != 0.5 {
		t.Fatalf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v, want 1", got)
	}
	if got := c.Median(); got != 2 {
		t.Fatalf("median %v, want 2", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Fatalf("p0 %v, want 1", got)
	}
	if got := c.Percentile(1); got != 4 {
		t.Fatalf("p100 %v, want 4", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.At(1)) || !math.IsNaN(c.Median()) {
		t.Fatal("empty CDF should yield NaN")
	}
	if c.Series(5) != nil {
		t.Fatal("empty CDF series not nil")
	}
}

func TestCDFSeries(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	s := NewCDF(xs).Series(10)
	if len(s) != 10 {
		t.Fatalf("series length %d", len(s))
	}
	if s[9][0] != 100 || s[9][1] != 1.0 {
		t.Fatalf("last point %v, want [100 1]", s[9])
	}
	if s[4][1] != 0.5 {
		t.Fatalf("5th point fraction %v, want 0.5", s[4][1])
	}
	// Series larger than sample count clips.
	if got := NewCDF([]float64{1, 2}).Series(10); len(got) != 2 {
		t.Fatalf("clipped series length %d, want 2", len(got))
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{5, 1}
	c := NewCDF(xs)
	xs[0] = -100
	if c.Percentile(1) != 5 {
		t.Fatal("CDF aliased caller slice")
	}
}

// Property: At is monotone and Percentile inverts At within the sample set.
func TestCDFMonotoneProperty(t *testing.T) {
	check := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = float64(i)
			}
		}
		c := NewCDF(raw)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		prev := -1.0
		for _, x := range sorted {
			p := c.At(x)
			if p < prev-1e-12 {
				return false
			}
			prev = p
			// Nearest-rank percentile of At(x) must be <= x's successor set.
			if c.Percentile(p) > x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdown(t *testing.T) {
	if got := Slowdown(150, 100); got != 1.5 {
		t.Fatalf("slowdown %v", got)
	}
	if !math.IsNaN(Slowdown(1, 0)) {
		t.Fatal("slowdown with zero baseline not NaN")
	}
}
