// Package stats holds the benchmark's pure arithmetic: order statistics,
// the tail-percentile rule, span self time, and the readers for process
// CPU time and peak resident memory.
package stats

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// SmoothedMedian is the mean of the central fifth of the sorted sample, the
// values ranked between the 40th and 60th percentile. On a large sample of
// like operations it is the median to within noise. On a small sample of
// unlike operations (25 different figures, three cluster sizes) the plain
// median is whichever operation happens to rank in the middle, and run-to-run
// noise swaps that operation for its neighbour; the mean over the middle
// ranks moves smoothly instead.
func SmoothedMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	lo := int(math.Floor(0.4 * float64(len(s))))
	hi := int(math.Ceil(0.6 * float64(len(s))))
	if hi <= lo {
		hi = lo + 1
	}
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// Quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so a
// spread computed here equals the one the driver computes. A sample of one
// has all three equal to its value.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	at := func(k int) float64 {
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// Spread is the distance between the quartiles as a share of the median,
// the run-to-run noise measure bounds are compared against.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailLadder lists the percentiles a latency tail is reported at.
var tailLadder = []float64{99.9, 99, 90}

// TailPercentile returns the highest percentile of the ladder
// (p99.9, p99, p90) that has at least ten of n samples beyond it; ok is
// false when even p90 has fewer (n < 100).
func TailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if Beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// Beyond is how many of n samples lie above the p-th percentile.
func Beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// Span is one timed interval of a trace; Parent indexes the enclosing span
// in the same slice, or is -1.
type Span struct {
	Start, End time.Duration
	Parent     int
}

// SelfTimes returns, per span, its duration minus the part of it that its
// direct children cover. Children may overlap each other (parallel calls)
// or stick out of the parent (a child that outlives it); covered time is
// the union of the child intervals clipped to the parent.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Parent != i {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// CPUTime is the user plus system CPU time this process has consumed.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ParseVmHWM extracts the peak resident set size, in KiB, from the text of
// /proc/<pid>/status.
func ParseVmHWM(status string) (kib int64, ok bool) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			v, err := strconv.ParseInt(f[1], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// PeakRSSMiB is this process's peak resident set size; 0 where /proc is
// not available.
func PeakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	kib, _ := ParseVmHWM(string(b))
	return float64(kib) / 1024
}
