package stats

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := Percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of an empty sample is not NaN")
	}
	if xs[0] != 5 {
		t.Error("Percentile sorted its argument in place")
	}
}

func TestSmoothedMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 9}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5.5},         // ranks 4..5 of 0..9
		{[]float64{1, 1, 1, 1, 5, 6, 7, 100, 100, 100, 100}, 6}, // ranks 4..6 of 0..10
	} {
		if got := SmoothedMedian(c.xs); !near(got, c.want) {
			t.Errorf("SmoothedMedian(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(SmoothedMedian(nil)) {
		t.Error("SmoothedMedian of an empty sample is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {83368, 99.9, true},
	} {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if got := Beyond(50, 75); got != 12 {
		t.Errorf("Beyond(50, 75) = %d, want 12", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name  string
		spans []Span
		want  []time.Duration
	}{
		{"leaf", []Span{{0, 10 * ms, -1}}, []time.Duration{10 * ms}},
		{"nested", []Span{{0, 10 * ms, -1}, {2 * ms, 5 * ms, 0}, {3 * ms, 4 * ms, 1}},
			[]time.Duration{7 * ms, 2 * ms, 1 * ms}},
		{"overlapping children count once", []Span{{0, 10 * ms, -1}, {1 * ms, 6 * ms, 0}, {4 * ms, 8 * ms, 0}},
			[]time.Duration{3 * ms, 5 * ms, 4 * ms}},
		{"child outlives parent", []Span{{0, 10 * ms, -1}, {8 * ms, 15 * ms, 0}},
			[]time.Duration{8 * ms, 7 * ms}},
		{"child inside a sibling adds nothing", []Span{{0, 10 * ms, -1}, {1 * ms, 9 * ms, 0}, {2 * ms, 3 * ms, 0}},
			[]time.Duration{2 * ms, 8 * ms, 1 * ms}},
		{"bad parent index is a root", []Span{{0, 4 * ms, 7}}, []time.Duration{4 * ms}},
	} {
		got := SelfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self[%d] = %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"
	if kib, ok := ParseVmHWM(status); !ok || kib != 20480 {
		t.Errorf("ParseVmHWM = %d, %v; want 20480, true", kib, ok)
	}
	if _, ok := ParseVmHWM("Name:\tbench\n"); ok {
		t.Error("ParseVmHWM found a value in a status without VmHWM")
	}
	if _, ok := ParseVmHWM("VmHWM:\tlots kB\n"); ok {
		t.Error("ParseVmHWM accepted a non-number")
	}
}

func TestProcessReaders(t *testing.T) {
	before := CPUTime()
	x := 0.0
	for i := 0; i < 5_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	if after := CPUTime(); after <= before || x == 0 {
		t.Errorf("CPUTime did not advance over a busy loop: %v -> %v", before, after)
	}
	if rss := PeakRSSMiB(); rss <= 0 {
		t.Errorf("PeakRSSMiB = %v, want > 0 on Linux", rss)
	}
}
