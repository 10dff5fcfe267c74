package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rcmp/bench/stats"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	// tail is the percentile op_tail_ms reports. It is fixed per workload,
	// chosen by stats.TailPercentile at the sample count the workload is
	// sized for, because a percentile that flips with a run's sample count
	// would not compare between runs. Workloads whose op is a whole chain
	// have too few samples for a tail and report their upper quartile.
	tail float64
	// childSetups is how many times set-up is repeated in a fresh child
	// process for setup_s, beside the measuring process's own. The dmr
	// workloads build a fresh cluster per pass and time set-up there.
	childSetups int
	new         func() bencher
}

// bencher is the code behind a workloadDef. Every call into the program
// under test goes through one of these methods.
type bencher interface {
	// setup does everything that must happen before the first timed
	// operation: build inputs, boot servers, fill caches, warm pools.
	setup(e *env) error
	// run performs timed operations until e.more says stop, recording each
	// with e.op. It may be called again on the same state (traced run).
	run(e *env)
	// check runs the output checks that need the whole run (counts,
	// references); each mismatch is recorded with e.fail.
	check(e *env)
	close()
}

var workloads = []workloadDef{
	{name: "figs_paper", tail: 75, childSetups: 2, new: func() bencher { return &figsPaper{} },
		why: "every registered figure at paper scale, serially: des, strict flow accounting, exact shuffle tier and the planner on the blocking path"},
	{name: "scale_ff", tail: 90, childSetups: 2, new: func() bencher { return &scaleChain{} },
		why: "failure-free weak-scaling chains at 1024-16384 nodes: fast-forward, class accounting, aggregated shuffle; an exact-path change must show nothing here"},
	{name: "scale_fail", tail: 75, childSetups: 2, new: func() bencher { return &scaleChain{fail: true} },
		why: "the same chains with one injected failure: exact event processing, graph planning and recomputation at 1024-4096 nodes"},
	{name: "serve_miss", tail: 90, childSetups: 2, new: func() bencher { return &serve{} },
		why: "closed-loop POST /v1/sweep over loopback, every job a cache miss: admission, lane queue, simulate, cache insert, encode"},
	{name: "serve_hit", tail: 99.9, childSetups: 2, new: func() bencher { return &serve{hit: true} },
		why: "the same requests fully cached: digest, lookup, report encode and HTTP write with no simulation at all"},
	{name: "dmr_clean", tail: 75, new: func() bencher { return &dmrChain{} },
		why: "failure-free 5-job chain on the real TCP runtime, fresh 4-worker cluster per pass: wire and dmr do the work, the simulator none"},
	{name: "dmr_kill", tail: 75, new: func() bencher { return &dmrChain{kill: true} },
		why: "the same chain with a worker killed after job 4: detection wait, BuildPlan, cascade recomputation with splitting and remote reads"},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// numClients is the closed-loop client count and the server's worker count.
func numClients() int { return min(runtime.NumCPU(), 4) }

// env is the state of one measured phase, shared by harness and workload.
type env struct {
	seed    int64
	smoke   bool
	clients int
	rec     *recorder // nil in the untraced run
	start   time.Time
	budget  time.Duration

	mu        sync.Mutex
	lat       []float64 // per-op latency, ms
	attempted int
	failed    int
	failures  []string
	// setups are set-up durations a workload timed itself (dmr, per pass);
	// exclWall and exclCPU are what it spent outside operations meanwhile.
	setups   []float64
	exclWall time.Duration
	exclCPU  time.Duration
}

// more reports whether another unit of work (a pass, a request) should
// start, given how many are done. A smoke run does smokeCap units. A measured
// run does at least one and then as many as come nearest to the budget: it
// starts the next only if, at the pace so far, at least half of it fits. So a
// pass that takes just under half the budget does not flip between two and
// three passes from run to run.
func (e *env) more(done, smokeCap int) bool {
	if e.smoke {
		return done < smokeCap
	}
	if done == 0 {
		return true
	}
	elapsed := time.Since(e.start)
	return elapsed+elapsed/time.Duration(2*done) < e.budget
}

// op records one operation. A non-empty problem marks it failed.
func (e *env) op(d time.Duration, problem string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	e.lat = append(e.lat, float64(d.Nanoseconds())/1e6)
	if problem != "" {
		e.failLocked(problem)
	}
}

// fail records a failed output check.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failLocked(fmt.Sprintf(format, args...))
}

func (e *env) failLocked(msg string) {
	e.failed++
	if len(e.failures) < 10 {
		e.failures = append(e.failures, msg)
	}
}

// outside times a stretch that is not part of any operation (set-up and
// tear-down between passes), so throughput and CPU per op exclude it.
func (e *env) outside(f func()) time.Duration {
	t, c := time.Now(), stats.CPUTime()
	f()
	d := time.Since(t)
	e.mu.Lock()
	e.exclWall += d
	e.exclCPU += stats.CPUTime() - c
	e.mu.Unlock()
	return d
}

// settle collects garbage before a serial operation, outside the measured
// time, so that every operation starts from a collected heap. Without it the
// garbage one operation leaves decides when the collector runs in the next,
// and peak memory and per-op latency vary from run to run with that timing
// (peak_rss_mb of scale_fail read anywhere from 140 to 210 MiB; with it,
// 63 MiB every time).
func (e *env) settle() { e.outside(runtime.GC) }

// phase is the outcome of one measured phase.
type phase struct {
	env  *env
	wall time.Duration
	cpu  time.Duration
}

func (p phase) opsPerSec() float64 { return float64(p.env.attempted) / p.wall.Seconds() }

// measure runs one phase of the workload for the given time.
func measure(w bencher, e *env, d time.Duration) phase {
	runtime.GC()
	e.start, e.budget = time.Now(), d
	t, c := time.Now(), stats.CPUTime()
	w.run(e)
	wall, cpu := time.Since(t), stats.CPUTime()-c
	w.check(e)
	if e.failed > e.attempted {
		e.failed = e.attempted
	}
	return phase{env: e, wall: wall - e.exclWall, cpu: cpu - e.exclCPU}
}

// endToEndMetrics turns a phase and the set-up samples into the
// end-to-end metrics.
func endToEndMetrics(def workloadDef, p phase, setups []float64) map[string]float64 {
	n := float64(p.env.attempted)
	return map[string]float64{
		"setup_s":       stats.Median(setups),
		"ops_per_s":     p.opsPerSec(),
		"op_p50_ms":     stats.SmoothedMedian(p.env.lat),
		"op_tail_ms":    stats.Percentile(p.env.lat, def.tail),
		"cpu_ms_per_op": float64(p.cpu.Nanoseconds()) / 1e6 / n,
		"peak_rss_mb":   stats.PeakRSSMiB(),
	}
}

// printMetrics prints metrics by name with their units, in table order.
func printMetrics(defs []metricDef, vals map[string]float64, note map[string]string) {
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-36s %14.6g %-6s %s\n", m.Name, v, m.Unit, note[m.Name])
	}
}
