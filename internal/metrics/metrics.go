// Package metrics collects timing samples from simulated runs and derives
// the statistics the paper reports: job and chain running times, slowdown
// factors, recomputation speed-ups, and CDFs of task durations.
package metrics

import (
	"math"
	"sort"

	"rcmp/internal/des"
)

// RunKind labels why a job run was started.
type RunKind string

const (
	RunInitial   RunKind = "initial"   // first execution of a chain job
	RunRecompute RunKind = "recompute" // partial re-execution during recovery
	RunRestart   RunKind = "restart"   // full re-run of the job interrupted by failure
)

// TaskKind labels a task sample.
type TaskKind string

const (
	TaskMap    TaskKind = "map"
	TaskReduce TaskKind = "reduce"
)

// TaskSample is one completed task execution.
type TaskSample struct {
	RunIndex int // 1-based started-run counter within the chain execution
	Job      int // chain job id
	RunKind  RunKind
	Kind     TaskKind
	Index    int // task index (reducer index for reduce splits)
	Split    int // split index for split reducers, else 0
	Node     int
	Start    des.Time
	End      des.Time
}

// Duration returns the task's wall-clock seconds.
func (s TaskSample) Duration() float64 { return float64(s.End - s.Start) }

// RunStat is one started job run.
type RunStat struct {
	RunIndex  int
	Job       int
	Kind      RunKind
	Start     des.Time
	End       des.Time
	Cancelled bool
}

// Duration returns the run's wall-clock seconds.
func (r RunStat) Duration() float64 { return float64(r.End - r.Start) }

// Recorder accumulates samples for one chain execution.
type Recorder struct {
	Tasks []TaskSample
	Runs  []RunStat
}

// AddTask records a completed task.
func (r *Recorder) AddTask(s TaskSample) { r.Tasks = append(r.Tasks, s) }

// Reserve pre-sizes the sample slices for an expected task and run count,
// so large simulations don't churn the garbage collector with append
// doublings. Already-recorded samples are preserved; reserving less (or
// nothing) stays correct.
func (r *Recorder) Reserve(tasks, runs int) {
	if cap(r.Tasks) < tasks {
		grown := make([]TaskSample, len(r.Tasks), tasks)
		copy(grown, r.Tasks)
		r.Tasks = grown
	}
	if cap(r.Runs) < runs {
		grown := make([]RunStat, len(r.Runs), runs)
		copy(grown, r.Runs)
		r.Runs = grown
	}
}

// AddRun records a finished (or cancelled) job run.
func (r *Recorder) AddRun(s RunStat) { r.Runs = append(r.Runs, s) }

// TaskDurations returns durations of tasks matching the filter (nil = all).
func (r *Recorder) TaskDurations(keep func(TaskSample) bool) []float64 {
	var out []float64
	for _, t := range r.Tasks {
		if keep == nil || keep(t) {
			out = append(out, t.Duration())
		}
	}
	return out
}

// RunsOfKind returns the runs with the given kind.
func (r *Recorder) RunsOfKind(k RunKind) []RunStat {
	var out []RunStat
	for _, run := range r.Runs {
		if run.Kind == k && !run.Cancelled {
			out = append(out, run)
		}
	}
	return out
}

// MeanRunDuration averages the duration of non-cancelled runs matching keep.
func (r *Recorder) MeanRunDuration(keep func(RunStat) bool) float64 {
	var sum float64
	n := 0
	for _, run := range r.Runs {
		if run.Cancelled {
			continue
		}
		if keep == nil || keep(run) {
			sum += run.Duration()
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// Len returns the sample count.
func (c CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x) in [0,1].
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Percentile returns the value at quantile q in [0,1] (nearest-rank).
func (c CDF) Percentile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	// The epsilon absorbs float rounding in q*n (e.g. (7/39)*39 > 7), which
	// would otherwise bump the nearest rank one too high.
	i := int(math.Ceil(q*float64(len(c.sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Median returns the 50th percentile.
func (c CDF) Median() float64 { return c.Percentile(0.5) }

// Series returns (value, cumulative fraction) pairs suitable for printing a
// CDF plot with up to points entries, evenly spaced in rank.
func (c CDF) Series(points int) [][2]float64 {
	if len(c.sorted) == 0 || points <= 0 {
		return nil
	}
	if points > len(c.sorted) {
		points = len(c.sorted)
	}
	out := make([][2]float64, 0, points)
	for i := 1; i <= points; i++ {
		rank := i * len(c.sorted) / points
		if rank < 1 {
			rank = 1
		}
		out = append(out, [2]float64{c.sorted[rank-1], float64(rank) / float64(len(c.sorted))})
	}
	return out
}

// Slowdown expresses a running time relative to a baseline (the paper's
// figures normalize to the fastest run in each experiment).
func Slowdown(t, baseline float64) float64 {
	if baseline <= 0 {
		return math.NaN()
	}
	return t / baseline
}
