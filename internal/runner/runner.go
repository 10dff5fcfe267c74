// Package runner executes sets of experiment artifacts concurrently.
//
// Each experiment in internal/experiments is a pure function of its Config:
// every simulation runs on a context reset to its just-built state, and all
// randomness flows from per-run seeded RNGs. Each pool worker owns one
// experiments.Worker, the only mutable simulation state it reuses across
// its jobs, so workers share no mutable state. The Runner exploits that: it
// fans jobs out across a fixed-size worker pool (GOMAXPROCS by default)
// while keeping results in input order, so a parallel run is byte-identical
// to a serial run of the same jobs — reproducibility is never traded for
// wall-clock speed.
//
// A job can fan out too: a figure's independent simulations run across its
// Worker's lanes (experiments.NewWorker). Run gives each pool worker
// max(1, workers/jobs) lanes, so CPUs that a short job list leaves idle
// run the runs of one figure, and a list with at least as many jobs as
// workers runs each job on one lane. The width changes no result and no
// error: a failing figure reports what its serial loop would have.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"rcmp/internal/experiments"
)

// Job is one experiment execution request.
type Job struct {
	// Name uniquely identifies the job in results and reports,
	// e.g. "Fig8b/quick/seed=3".
	Name string
	// Key is the registry key of the spec the job executes ("8b",
	// "ablation-reuse", ...). Grid fills it in; together with Config it
	// identifies the job's output (experiments.ConfigDigest), which is
	// what lets a serving layer cache results soundly.
	Key string
	// Config parameterizes the run; equal Configs yield identical Results.
	Config experiments.Config
	// Run executes the experiment (typically a Spec.Run from the registry).
	Run func(experiments.Config) (*experiments.Result, error)
	// Cost is the job's relative expected wall-clock weight (see
	// experiments.Spec.Cost). The pool starts jobs cost-descending —
	// longest first — so a heavy job never starts last and stretches the
	// makespan; zero-cost jobs run after every weighted one, in input
	// order. Results are unaffected: they stay in input order and each
	// job's output is independent of start order.
	Cost float64
}

// Result is one finished job.
type Result struct {
	Name   string
	Config experiments.Config
	// Res is the experiment's output; nil when Err is set.
	Res *experiments.Result
	// Err records why the job produced no result: a config error the
	// experiment returned (e.g. a sweep point whose failure injection falls
	// beyond the chain), or a recovered panic from a simulator bug. Either
	// way the error stays in its job's slot — one bad grid point cannot
	// take down the pool or the sweep. For recovered panics the first line
	// is the panic message and the rest is the goroutine stack at the
	// panic site (see ErrMessage): a caller holding the Result can read
	// the stack, while report rows (EncodeRow), and so the sweep server's
	// cache, keep the message line only. A panic in one of a figure's
	// fanned-out runs reads the same: its message, then the stack of the
	// lane it began on, then the stack where the figure raised it again.
	Err string
	// Elapsed is per-job wall-clock time. It is reported for scheduling
	// insight only and excluded from deterministic JSON output.
	Elapsed time.Duration
}

// Runner is a fixed-size worker pool over experiment jobs.
type Runner struct {
	// Workers is the pool size; values <= 0 mean GOMAXPROCS.
	Workers int
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes jobs on the pool and returns one Result per job, indexed
// and ordered like the input regardless of completion order. Jobs are
// handed to workers cost-descending (ties in input order): with more
// jobs than workers this is the LPT heuristic, which keeps one long-pole
// job from starting last and dominating the wall clock. Each worker's
// experiments.Worker has max(1, workers/jobs) lanes.
func (r *Runner) Run(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	order := scheduleOrder(jobs)
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := r.workers()
	width := laneWidth(workers, len(jobs))
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := experiments.NewWorker(width)
			for i := range idx {
				out[i] = RunOne(jobs[i], w)
			}
		}()
	}
	for _, i := range order {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// laneWidth is how many lanes each of a pool's workers gives its jobs:
// the CPUs a short job list would leave idle, shared out, and one lane
// once there are at least as many jobs as workers.
func laneWidth(workers, jobs int) int { return max(1, workers/max(1, jobs)) }

// scheduleOrder returns job indices sorted by descending Cost, stable on
// the input order for equal costs.
func scheduleOrder(jobs []Job) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Cost > jobs[order[b]].Cost
	})
	return order
}

// ErrMessage returns the first line of Err — the panic or config error
// message without any captured stack trace. This is the form deterministic
// reports use: stack traces carry addresses and goroutine IDs that vary
// run to run.
func (r Result) ErrMessage() string {
	if i := strings.IndexByte(r.Err, '\n'); i >= 0 {
		return r.Err[:i]
	}
	return r.Err
}

// RunOne executes a single job on w, the caller's experiments.Worker (nil
// for a fresh one as wide as GOMAXPROCS), with the panic confinement every
// pool worker uses: a panicking experiment becomes that job's Err — message
// first, then the stack at the panic site — and never unwinds the caller.
// Long-running services schedule jobs one at a time through this, one
// Worker per service goroutine. Result.Config is the job's Config, without
// w.
func RunOne(j Job, w *experiments.Worker) (res Result) {
	res.Name = j.Name
	res.Config = j.Config
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			res.Res = nil
			// Keep the stack: a panic here is a simulator bug surfaced by
			// some grid point, and without the trace a server operator has
			// no way to diagnose it from a recorded per-job error. The
			// message stays on line one so ErrMessage can strip the
			// nondeterministic remainder for byte-stable reports.
			res.Err = fmt.Sprintf("%v\n%s", p, debug.Stack())
		}
	}()
	r, err := j.Run(j.Config.WithWorker(w))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Res = r
	return res
}
