// Command bench is the repository's benchmark: seven workloads over the
// simulator, the sweep server and the dmr runtime, six end-to-end metrics on
// each, and (traced run) the per-layer probes. See README.md.
//
//	bash bench/run.sh --workload figs_paper --seed 0 --seconds 10 --trace 0
//	bash bench/run.sh -workload all -seed 0 -out bench/out
//	bash bench/run.sh -workload all -trace 1
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh -write-ref
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcmp/bench/stats"
)

// processStart approximates process start, so a child's set-up time covers
// "process start to first timed operation".
var processStart = time.Now()

const (
	buildDir = ".bench_build"
	// childEnv marks a process started by `-workload all`, which already
	// holds the lock.
	childEnv = "RCMPBENCH_CHILD"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name      = flag.String("workload", "", "workload name, or all")
		seed      = flag.Int64("seed", 0, "offsets every Config.Seed, chain seed and request seed")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes a Chrome trace")
		out       = flag.String("out", filepath.Join(buildDir, "out"), "directory for the result set and traces")
		runs      = flag.Int("runs", 1, "with -workload all: repeat the whole set this many times")
		smoke     = flag.Bool("smoke", false, "tiny sizes: proves every workload runs and every check passes")
		writeRef  = flag.Bool("write-ref", false, "regenerate bench/ref (seed-0 reference outputs)")
		setupOnly = flag.Bool("setup-only", false, "internal: perform set-up, print its duration, exit")
		printJSON = flag.Bool("print-benchmark-json", false, "print the root BENCHMARK.json derived from the metric tables")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	switch {
	case *printJSON:
		b, _ := json.MarshalIndent(benchmarkJSON(), "", "  ")
		fmt.Println(string(b))
		return
	case *writeRef:
		if err := writeRefs(filepath.Join("bench", "ref")); err != nil {
			fatal("%v", err)
		}
		return
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, out: *out}
	if *name == "all" {
		os.Exit(runAll(o, *runs))
	}
	def, ok := lookupWorkload(*name)
	if !ok {
		fatal("unknown workload %q (want all or one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *setupOnly {
		setupChild(def, o)
		return
	}
	if os.Getenv(childEnv) == "" {
		unlock, err := lock()
		if err != nil {
			fatal("%v", err)
		}
		defer unlock()
	}
	res, err := runWorkload(def, o)
	if err != nil {
		fatal("%s: %v", def.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil { // a NaN metric: print no result rather than a broken one
		fatal("%s: result: %v", def.name, err)
	}
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func writeFile(dir, name string, b []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// lock keeps two measuring runs from sharing the machine: whoever holds an
// exclusive flock on .bench_build/lock measures; anyone else is refused.
func lock() (unlock func(), err error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(buildDir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("another benchmark run is alive (%s/lock is held); two at once would measure each other", buildDir)
	}
	return func() { f.Close() }, nil
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	out     string
}

func (o options) args(workload string) []string {
	a := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.out}
	if o.trace {
		a = append(a, "-trace", "1")
	}
	if o.smoke {
		a = append(a, "-smoke")
	}
	return a
}

func (o options) env() *env {
	return &env{seed: o.seed, smoke: o.smoke, clients: numClients()}
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, vals map[string]float64, phases ...phase) result {
	r := result{Metrics: map[string]metricValue{}}
	for _, p := range phases {
		r.Attempted += p.env.attempted
		r.Failed += p.env.failed
	}
	r.Correct = r.Failed == 0
	for _, m := range defs {
		r.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return r
}

// setupChild is the -setup-only mode: one cold set-up in a fresh process.
func setupChild(def workloadDef, o options) {
	w := def.new()
	if err := w.setup(o.env()); err != nil {
		fatal("%s: set-up: %v", def.name, err)
	}
	ready := time.Since(processStart)
	w.close()
	fmt.Println(ready.Seconds())
}

// childSetups repeats set-up in n fresh processes, one at a time, and
// returns the durations in seconds.
func childSetups(def workloadDef, o options, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, append(o.args(def.name), "-setup-only")...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

// runWorkload measures one workload in this process and prints what it
// found. Untraced, it reports the end-to-end metrics; traced, it runs the
// workload twice (recorder off, then on), writes the Chrome trace, runs the
// layer probes and reports the per-layer metrics.
func runWorkload(def workloadDef, o options) (result, error) {
	e := o.env()
	fmt.Printf("workload %s seed %d: closed loop, %d client(s); nproc %d GOMAXPROCS %d %s commit %s\n",
		def.name, o.seed, e.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	var setups []float64
	if !o.trace {
		n := def.childSetups
		if o.smoke && n > 1 {
			n = 1
		}
		var err error
		if setups, err = childSetups(def, o, n); err != nil {
			return result{}, err
		}
	}
	w := def.new()
	defer w.close()
	t := time.Now()
	if err := w.setup(e); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if def.childSetups > 0 {
		// This process's own set-up is one more sample beside the children's.
		setups = append(setups, time.Since(t).Seconds())
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		p := measure(w, e, budget)
		report(p)
		vals := endToEndMetrics(def, p, append(setups, e.setups...))
		n := len(e.lat)
		rule := "no tail"
		if p, ok := stats.TailPercentile(n); ok {
			rule = fmt.Sprintf("p%g", p)
		}
		printMetrics(endToEnd, vals, map[string]string{
			"setup_s":    fmt.Sprintf("median of %d set-ups", len(setups)+len(e.setups)),
			"op_p50_ms":  fmt.Sprintf("%d samples", n),
			"op_tail_ms": fmt.Sprintf("p%g, %d samples, %d beyond (the >= 10 beyond rule gives %s at this count)", def.tail, n, stats.Beyond(n, def.tail), rule),
		})
		return newResult(endToEnd, vals, p), nil
	}

	// A traced run spends a quarter of the budget on each of its two
	// phases; the probes take the rest of its time.
	gc := readGoMetrics()
	plain := measure(w, e, budget/4)
	traced := o.env()
	traced.rec = newRecorder()
	tp := measure(w, traced, budget/4)
	gc = readGoMetrics().sub(gc)
	report(plain)
	report(tp)
	name := "trace-" + def.name + ".json"
	if err := traced.rec.writeChrome(o.out, name); err != nil {
		return result{}, err
	}
	printSelfTimes(traced.rec, filepath.Join(o.out, name))

	vals, err := runProbes(o)
	if err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	ops := float64(plain.env.attempted + tp.env.attempted)
	vals["go.gc_cpu_share"] = gc.gcCPU / gc.totalCPU
	vals["go.heap_alloc_mb_per_op"] = gc.allocBytes / (1 << 20) / ops
	vals["go.num_gc_per_op"] = gc.cycles / ops
	vals["bench.trace_overhead"] = tp.opsPerSec() / plain.opsPerSec()
	printMetrics(perLayer, vals, nil)
	return newResult(perLayer, vals, plain, tp), nil
}

// report prints a phase's counts and any failed checks.
func report(p phase) {
	kind := "untraced"
	if p.env.rec != nil {
		kind = "traced"
	}
	fmt.Printf("  %s phase: %d ops in %.3f s, %d failed\n", kind, p.env.attempted, p.wall.Seconds(), p.env.failed)
	for _, f := range p.env.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

func printSelfTimes(r *recorder, path string) {
	names, total, self, count := r.selfByName()
	fmt.Printf("  trace: %d spans -> %s; self time = span - covered children\n", len(r.spans), path)
	for i, n := range names {
		if i == 8 {
			break
		}
		fmt.Printf("    %-32s x%-6d total %10.3f ms  self %10.3f ms\n", n, count[n],
			float64(total[n].Nanoseconds())/1e6, float64(self[n].Nanoseconds())/1e6)
	}
}

// commit is the VCS revision the binary was built from, if the build saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// resultSet is what `-workload all` writes and `compare` reads.
type resultSet struct {
	Meta struct {
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Go         string  `json:"go"`
		Commit     string  `json:"commit"`
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Clients    int     `json:"clients"`
		Smoke      bool    `json:"smoke"`
		Trace      bool    `json:"trace"`
	} `json:"meta"`
	Runs []setRun `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	result
}

// runAll runs every workload, each in its own child process (so
// peak_rss_mb is that workload's alone), never two at once, and writes one
// result set.
func runAll(o options, runs int) int {
	unlock, err := lock()
	if err != nil {
		fatal("%v", err)
	}
	defer unlock()
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	var set resultSet
	set.Meta.NProc, set.Meta.GOMAXPROCS, set.Meta.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	set.Meta.Commit, set.Meta.Seed, set.Meta.Seconds = commit(), o.seed, o.seconds
	set.Meta.Clients, set.Meta.Smoke, set.Meta.Trace = numClients(), o.smoke, o.trace
	code := 0
	for r := 0; r < runs; r++ {
		for _, def := range workloads {
			cmd := exec.Command(self, o.args(def.name)...)
			cmd.Env = append(os.Environ(), childEnv+"=1")
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			lines := splitLines(b)
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
				code = 1
				continue
			}
			run := setRun{Workload: def.name}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: bad result line: %v\n", def.name, err)
				code = 1
				continue
			}
			fmt.Printf("  fail_share = %d/%d\n", run.Failed, run.Attempted)
			if !run.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, run)
		}
	}
	b, _ := json.MarshalIndent(set, "", "  ")
	name := "results.json"
	if o.trace {
		name = "results-trace.json"
	}
	if err := writeFile(o.out, name, append(b, '\n')); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s\n", filepath.Join(o.out, name))
	return code
}

func splitLines(b []byte) []string {
	return strings.Split(strings.TrimRight(string(b), "\n"), "\n")
}
