// Package experiments wires the simulator, planner, analysis models and
// workload into one harness per table/figure of the RCMP paper's
// evaluation (Section V). Each Fig* function runs the experiment and
// returns a Result whose Text is the printable rows/series of that figure
// and whose Values expose the key numbers for tests and EXPERIMENTS.md.
//
// Scales: ScalePaper uses the paper's cluster shapes (STIC: 10 nodes,
// 4 GB/node; DCO: 60 nodes). DCO data volume is reduced from the paper's
// 20 GB/node — the simulator is event-accurate, so per-node wave counts and
// contention (which drive every relative result) are preserved at a
// fraction of the event count. ScaleQuick shrinks everything further for
// fast unit tests.
package experiments

import (
	"fmt"
	"math"
	"slices"

	"rcmp/internal/analysis"
	"rcmp/internal/cluster"
	"rcmp/internal/des"
	"rcmp/internal/failure"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
	"rcmp/internal/textplot"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScalePaper mirrors the paper's cluster shapes.
	ScalePaper Scale = iota
	// ScaleQuick shrinks clusters and inputs for fast tests.
	ScaleQuick
)

// ScaleSmoke is the sizing used by `make bench-smoke`: an alias of
// ScaleQuick, named separately so build targets and docs can refer to the
// smoke tier without implying a third cluster shape.
const ScaleSmoke = ScaleQuick

func (s Scale) String() string {
	switch s {
	case ScalePaper:
		return "paper"
	case ScaleQuick:
		return "quick"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Config parameterizes one experiment execution. The zero value runs at
// paper scale with seed 0 and reproduces the original harness byte for
// byte; equal Configs always produce identical Results, which is what lets
// the runner fan experiments out across workers without losing
// reproducibility.
type Config struct {
	// Scale selects experiment sizing.
	Scale Scale
	// Seed perturbs every pseudo-random choice: it seeds the chain-level
	// RNG of each simulated run and offsets the failure-trace generators.
	Seed int64
	// FailureAt, when positive, overrides the started run the single
	// failure hits in figures where "which job fails" is the knob
	// (Fig8b/8c, Fig10, Fig12, Hybrid, DoubleFailure, the single-failure
	// ablations); figures whose chain shape fixes it ignore it.
	FailureAt int
	// Schedule, when non-empty, replaces the failure injection with an
	// ordered multi-failure schedule in the FailureAt figures but Fig10.
	// Mutually exclusive with FailureAt. Victims are drawn from the chain
	// seed, so a schedule sweep composes with a seed sweep.
	Schedule failure.Schedule
	// Nodes, when positive, overrides the simulated cluster size of the
	// experiment's setup, reducer counts following it. Fig11 ignores it
	// (its x-axis is the cluster size); WeakScaling runs just that point.
	// Out-of-range values are per-job errors (see Config.validate).
	Nodes int
	// Tenants, when positive, selects a multi-tenant experiment's tenant
	// count (0 keeps its own sweep); above 1 it is a per-job error on any
	// spec not registered as MultiTenant.
	Tenants int
	// Speculation enables speculative task execution (Section III-A) in
	// every simulated run and adds "speculative launched"/"speculative
	// wasted" counters to the Values.
	Speculation bool
	// Engine selects the evaluator of every simulated run: EngineDES, the
	// discrete-event simulator, or EngineAnalytic, the closed-form
	// model, which answers in microseconds and so accepts
	// Nodes far beyond the DES ceiling (see Config.validate).
	Engine Engine

	// worker owns the simulation context the experiment's DES runs reuse
	// (see WithWorker). It never reaches a digest or a report.
	worker *Worker
}

// Cluster-size override bounds: below minNodesOverride the fixed failure
// victim and replica placement degenerate; above maxNodesOverride a single
// in-process simulation stops being a sane request. The ceiling sits at
// 2x the benchmarked 8192-node sweep point: with class accounting and the
// aggregated shuffle tier, 16k-node what-if runs complete in seconds, and
// headroom above the recorded trend row keeps the CLI usable for
// extrapolation without opening the door to absurd sizes.
const (
	minNodesOverride = 5
	maxNodesOverride = 16384
)

// maxAnalyticNodes is the Nodes ceiling under EngineAnalytic. The
// closed-form model costs O(jobs) per answer regardless of cluster size,
// so the bound exists only to keep counters and byte totals comfortably
// inside float64/int64 precision; 2^20 nodes covers the 10^5–10^6 range
// the capacity-planning endpoint advertises.
const maxAnalyticNodes = 1 << 20

// maxTenants bounds the Config.Tenants override: every tenant is a full
// graph execution sharing one simulated cluster, so the session cost grows
// linearly and a runaway sweep point should fail fast, not crawl.
const maxTenants = 64

// validate is the per-job Config check Spec.Exec and CapacityPlan run
// first, so a sweep grid containing an out-of-range point records a
// per-job error instead of panicking deep inside a setup. It rejects an
// Engine outside the enum, a Nodes override outside the selected engine's
// range (the DES ceiling stays at maxNodesOverride; the analytic engine,
// with no event loop to grow, accepts up to maxAnalyticNodes) and a
// Tenants override outside [0, maxTenants].
func (c Config) validate() error {
	if c.Engine != EngineDES && c.Engine != EngineAnalytic {
		return fmt.Errorf("experiments: Engine=%d out of range", int(c.Engine))
	}
	max := maxNodesOverride
	if c.Engine == EngineAnalytic {
		max = maxAnalyticNodes
	}
	if c.Nodes != 0 && (c.Nodes < minNodesOverride || c.Nodes > max) {
		return fmt.Errorf("experiments: Nodes=%d out of range [%d, %d] for engine %s", c.Nodes, minNodesOverride, max, c.Engine)
	}
	if c.Tenants < 0 || c.Tenants > maxTenants {
		return fmt.Errorf("experiments: Tenants=%d out of range [0, %d]", c.Tenants, maxTenants)
	}
	return nil
}

// Result is one executed experiment.
type Result struct {
	Name   string
	Text   string
	Values map[string]float64
}

func newResult(name string) *Result {
	return &Result{Name: name, Values: make(map[string]float64)}
}

// setup bundles a cluster and chain configuration under a display name,
// plus the engine every run of the experiment dispatches to and the Worker
// whose context the DES runs reuse.
type setup struct {
	name   string
	ccfg   cluster.Config
	cfg    mapreduce.ChainConfig
	engine Engine
	w      *Worker
}

// sticSetup builds the paper's STIC configuration: 10 nodes, 4 GB/node
// (40 GB jobs), reducers sized for one wave.
func sticSetup(c Config, mapSlots, redSlots int) setup {
	return newSetup(c, fmt.Sprintf("SLOTS %d-%d, STIC", mapSlots, redSlots), cluster.STICConfig(mapSlots, redSlots),
		mapreduce.ChainConfig{InputPerNode: 4 * cluster.GB}, redSlots, 5)
}

// dcoSetup builds the DCO configuration: the given number of nodes at
// both scales (Fig11's x-axis is that number), one reducer wave. Per-node
// volume is 2 GB (vs the paper's 20 GB) to keep simulation event counts
// tractable; wave structure per node is preserved via block size.
func dcoSetup(c Config, nodes int) setup {
	return newSetup(c, "SLOTS 1-1, DCO", cluster.DCOConfig(nodes, 1, 1),
		mapreduce.ChainConfig{InputPerNode: 2 * cluster.GB, BlockSize: 256 * cluster.MB}, 1, nodes)
}

// newSetup applies a Config to a base cluster and chain shape: a 7-job
// RCMP chain, shrunk at ScaleQuick to quickNodes nodes and 4 jobs of
// 512 MB/node; the Nodes override, with one wave of redSlots reducers per
// node; the seed, speculation and engine. Per-task samples are off: most
// figures read only run stats, and the samples are a third of what a
// paper-scale figure allocates, so they decide how often the collector
// runs, and with it what each lane pays in write barriers while the
// other lanes run (docs/perf.md). A run whose Recorder.Tasks a figure
// reads turns them back on.
func newSetup(c Config, name string, ccfg cluster.Config, cfg mapreduce.ChainConfig, redSlots, quickNodes int) setup {
	cfg.Mode, cfg.NumJobs, cfg.Seed, cfg.Speculation = mapreduce.ModeRCMP, 7, c.Seed, c.Speculation
	cfg.NoTaskSamples = true
	if c.Scale == ScaleQuick {
		ccfg.Nodes, cfg.NumJobs = quickNodes, 4
		cfg.InputPerNode, cfg.BlockSize = 512*cluster.MB, 128*cluster.MB
	}
	if c.Nodes > 0 {
		ccfg.Nodes = c.Nodes
		name = fmt.Sprintf("%s @%d nodes", name, c.Nodes)
	}
	cfg.NumReducers = ccfg.Nodes * redSlots
	return setup{name: name, ccfg: ccfg, cfg: cfg, engine: c.Engine, w: c.owner()}
}

// splitRatioFor returns the paper's reducer split ratios: 8 on STIC, N-1 on
// DCO (Section V-A).
func splitRatioFor(st setup) int {
	if st.ccfg.Name == "DCO" {
		return st.ccfg.Nodes - 1
	}
	if st.ccfg.Nodes < 9 {
		return st.ccfg.Nodes - 1
	}
	return 8
}

// strategy is one of the failure-resilience strategies Section V compares.
// setup.with is the one place each says what it changes in a chain config.
type strategy int

const (
	// rcmpNoSplit is RCMP recomputation without reducer splitting: the
	// setup as built.
	rcmpNoSplit strategy = iota
	// rcmpSplit splits recomputed reducers at the paper's ratio.
	rcmpSplit
	// scatter is the scatter-only alternative of Section IV-B2.
	scatter
	// hadoopRepl2 and hadoopRepl3 are Hadoop with every job output
	// replicated twice or three times.
	hadoopRepl2
	hadoopRepl3
)

// String is the strategy's label in the paper's Figure 8 legend, which
// DAGRecovery and DoubleFailure share; other figures label their own.
func (s strategy) String() string {
	return [...]string{"RCMP NO-SPLIT", "RCMP SPLIT", "SCATTER", "HADOOP REPL-2", "HADOOP REPL-3"}[s]
}

// with returns st running strategy s.
func (st setup) with(s strategy) setup {
	switch s {
	case rcmpSplit:
		st.cfg.Split, st.cfg.SplitRatio = true, splitRatioFor(st)
	case scatter:
		st.cfg.ScatterOnly = true
	case hadoopRepl2:
		st.cfg.Mode, st.cfg.OutputRepl = mapreduce.ModeHadoop, 2
	case hadoopRepl3:
		st.cfg.Mode, st.cfg.OutputRepl = mapreduce.ModeHadoop, 3
	}
	return st
}

// vsBest returns each total as a slowdown versus the fastest of them.
func vsBest(totals []float64) []float64 {
	best := math.Inf(1)
	for _, t := range totals {
		best = min(best, t)
	}
	out := make([]float64, len(totals))
	for i, t := range totals {
		out[i] = metrics.Slowdown(t, best)
	}
	return out
}

// victim is the node failures target; fixed so every strategy loses the
// same share of work.
const victim = 3

// fixedFailure builds the paper's injection at a structurally fixed run:
// 15s after the start of the AtRun-th started run.
func fixedFailure(atRun int) []mapreduce.Injection {
	return []mapreduce.Injection{{AtRun: atRun, After: 15, Node: victim}}
}

// effectiveFailureAt applies the Config.FailureAt override to a figure's
// default injection run.
func effectiveFailureAt(c Config, def int) int {
	if c.FailureAt > 0 {
		return c.FailureAt
	}
	return def
}

// singleFailure is fixedFailure with the FailureAt override applied, for
// figures where the failure position is the experimental knob. A single
// injection only fires while initial runs are still starting, so an
// override beyond the chain length would silently yield failure-free data
// mislabeled as a failure figure. Overrides arrive from sweep grids and
// CLI flags — input, not code — so the error is returned, not panicked: a
// grid can legitimately generate out-of-range points and the runner must
// be able to record them as per-job failures.
func singleFailure(c Config, st setup, atRun int) ([]mapreduce.Injection, error) {
	at := effectiveFailureAt(c, atRun)
	if c.FailureAt > 0 && at > st.cfg.NumJobs {
		return nil, fmt.Errorf("experiments: FailureAt=%d exceeds the %d-job chain (%s); the injection would never fire",
			at, st.cfg.NumJobs, st.name)
	}
	return fixedFailure(at), nil
}

// failureScenario resolves the failure injections for a figure whose
// default is a single injection at started-run def: a non-empty
// Config.Schedule replaces the single injection with its pulse sequence,
// otherwise the FailureAt override (or the figure default) applies.
func failureScenario(c Config, st setup, def int) ([]mapreduce.Injection, error) {
	if c.Schedule.Empty() {
		return singleFailure(c, st, def)
	}
	if err := validateSchedule(c, st); err != nil {
		return nil, err
	}
	return scheduleInjections(c.Schedule), nil
}

// validateSchedule checks a non-empty Config.Schedule override against a
// figure's setup: no conflicting FailureAt, well-formed pulses, and a
// first pulse the chain is guaranteed to reach.
func validateSchedule(c Config, st setup) error {
	if c.FailureAt > 0 {
		return fmt.Errorf("experiments: FailureAt=%d and Schedule %s are mutually exclusive", c.FailureAt, c.Schedule.Label())
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	if first := c.Schedule.Pulses[0].AtRun; first > st.cfg.NumJobs {
		return fmt.Errorf("experiments: schedule %s starts at run %d, beyond the %d-job chain (%s); no injection would fire",
			c.Schedule.Label(), first, st.cfg.NumJobs, st.name)
	}
	return nil
}

// scheduleInjections lowers a failure schedule onto the engine's injection
// list. Victims are seed-driven (-1): a trace pulse names how many machines
// die, not which ones.
func scheduleInjections(s failure.Schedule) []mapreduce.Injection {
	out := make([]mapreduce.Injection, 0, len(s.Pulses))
	for _, p := range s.Pulses {
		out = append(out, mapreduce.Injection{AtRun: p.AtRun, After: des.Time(p.After), Node: -1, Count: p.Nodes})
	}
	return out
}

// failureNote marks a figure title when the failure scenario was
// overridden, so the output cannot masquerade as the paper's default
// scenario.
func failureNote(c Config, name string) string {
	if !c.Schedule.Empty() {
		return fmt.Sprintf("%s [schedule %s]", name, c.Schedule.Label())
	}
	if c.FailureAt > 0 {
		return fmt.Sprintf("%s [failure-at %d]", name, c.FailureAt)
	}
	return name
}

// chainError carries a simulation's error out of a figure's nested loops.
// The error can come from input — a failure schedule given on the command
// line or to the server may lose every replica of a file — so it is the
// job's error, not a bug: run, runGraph and the multi-tenant session panic
// with it, and Spec.Exec recovers this type and no other, so a genuine
// panic keeps its stack. Worker.each raises the lowest-indexed one of a
// fanned-out figure, the one a serial loop would have met first.
type chainError struct{ err error }

func (e chainError) Error() string { return e.err.Error() }

// run executes one chain on the setup's engine; an error leaves the figure
// as a chainError.
func run(st setup) *mapreduce.Result {
	res, err := st.w.runChain(st.engine, st.ccfg, st.cfg)
	if err != nil {
		panic(chainError{fmt.Errorf("experiment %s: %w", st.name, err)})
	}
	return res
}

// runAll runs every setup's chain across the Worker lanes of the first
// setup (a figure's setups share one engine and one Worker) and returns
// the results by index. A failure panics as run's does; the lowest-indexed
// one decides (see Worker.each).
func runAll(sts []setup) []*mapreduce.Result {
	out := make([]*mapreduce.Result, len(sts))
	if len(sts) == 0 {
		return out
	}
	key := func(i int) string { return contextKey(sts[i].ccfg) }
	sts[0].w.each(sts[0].engine, len(sts), nil, key, func(lane *Worker, i int) {
		st := sts[i]
		st.w = lane
		out[i] = run(st)
	})
	return out
}

// addSpeculationValues surfaces the speculative-execution counters of one
// measured run in the figure's Values — only under the Speculation
// dimension, so default outputs (and golden digests) carry no new keys.
func addSpeculationValues(r *Result, c Config, label string, res *mapreduce.Result) {
	if !c.Speculation || res == nil {
		return
	}
	r.Values[label+" speculative launched"] = float64(res.SpeculativeLaunched)
	r.Values[label+" speculative wasted"] = float64(res.SpeculativeWasted)
}

// ---- Figure 2 ----

// Fig2 reproduces the failure-trace CDFs: new failures per day for the
// STIC-like and SUG@R-like clusters.
func Fig2(c Config) (*Result, error) {
	r := newResult("Fig2: CDF of new failures per day")
	var names []string
	series := make(map[string][]float64)
	var xs []float64
	for _, cfg := range []failure.TraceConfig{failure.STICTrace(), failure.SUGARTrace()} {
		cfg.Seed += c.Seed
		days, err := failure.Generate(cfg)
		if err != nil {
			return nil, err
		}
		cdf := failure.CDF(days)
		stats := failure.Summarize(days)
		r.Values[cfg.Name+"/failure-day-fraction"] = stats.FailureDayFrac
		r.Values[cfg.Name+"/p-zero-days"] = cdf.At(0)
		r.Values[cfg.Name+"/max-failures"] = float64(stats.MaxFailures)
		name := cfg.Name + " cluster"
		names = append(names, name)
		var ys []float64
		if xs == nil {
			for x := 0; x <= 40; x += 5 {
				xs = append(xs, float64(x))
			}
		}
		for _, x := range xs {
			ys = append(ys, 100*cdf.At(x))
		}
		series[name] = ys
	}
	r.Text = textplot.Series(r.Name, "failures/day (CDF %)", xs, names, series)
	return r, nil
}

// ---- Figure 8 ----

// fig8Row is one Figure 8 strategy's label, total time and simulated
// result (nil for OPTIMISTIC).
type fig8Row struct {
	label string
	total float64
	res   *mapreduce.Result
}

// fig8Strategies are the simulated Figure 8 strategies, in run order.
var fig8Strategies = []strategy{rcmpSplit, rcmpNoSplit, hadoopRepl2, hadoopRepl3}

// fig8Runs returns the simulated Figure 8 strategies' setups on st.
func fig8Runs(st setup, failures []mapreduce.Injection) []setup {
	out := make([]setup, len(fig8Strategies))
	for i, s := range fig8Strategies {
		out[i] = st.with(s)
		out[i].cfg.Failures = failures
	}
	return out
}

// fig8Rows labels the results of fig8Runs(st, failures) and models
// OPTIMISTIC from the RCMP NO-SPLIT run.
func fig8Rows(st setup, failures []mapreduce.Injection, res []*mapreduce.Result) []fig8Row {
	rows := make([]fig8Row, 0, len(res)+1)
	for i, s := range fig8Strategies {
		rows = append(rows, fig8Row{s.String(), float64(res[i].Total), res[i]})
	}
	noSplit := res[slices.Index(fig8Strategies, rcmpNoSplit)]
	return append(rows, fig8Row{"OPTIMISTIC", optimisticTotal(st, noSplit, failures), nil})
}

// optimisticTotal models OPTIMISTIC with the paper's method: average job
// times before/after the failure from the RCMP no-split run.
func optimisticTotal(st setup, noSplit *mapreduce.Result, failures []mapreduce.Injection) float64 {
	jobs := st.cfg.NumJobs
	if len(failures) == 0 {
		return float64(noSplit.Total)
	}
	failRun := failures[0].AtRun
	p := perJobFromRuns(noSplit, failRun)
	reaction := float64(failures[0].After + st.ccfg.FailureDetectionTimeout)
	return analysis.OptimisticTotal(jobs, failRun, p, reaction)
}

// perJobFromRuns extracts full/degraded per-job averages around a failure.
func perJobFromRuns(res *mapreduce.Result, failRun int) analysis.PerJob {
	rec := res.Recorder
	full := rec.MeanRunDuration(func(s metrics.RunStat) bool {
		return s.Kind == metrics.RunInitial && s.RunIndex < failRun
	})
	degraded := rec.MeanRunDuration(func(s metrics.RunStat) bool {
		return s.Kind == metrics.RunRestart ||
			(s.Kind == metrics.RunInitial && s.RunIndex > failRun)
	})
	if math.IsNaN(degraded) {
		degraded = full
	}
	if math.IsNaN(full) {
		full = degraded
	}
	return analysis.PerJob{Full: full, Degraded: degraded}
}

// fig8 assembles one Figure 8 sub-figure across setups.
func fig8(name string, c Config, failures func(setup) ([]mapreduce.Injection, error), strategies []string) (*Result, error) {
	r := newResult(name)
	setups := []setup{sticSetup(c, 1, 1), sticSetup(c, 2, 2), dcoSetup(c, 60)}
	if c.Scale == ScaleQuick {
		setups = setups[:1]
	}
	header := []string{"strategy"}
	for _, st := range setups {
		header = append(header, st.name)
	}
	// Every setup's chains run at once. A setup whose failure scenario is
	// invalid ends the list, and its error comes after any error of the
	// runs before it, as in a serial loop.
	var sts []setup
	var fails [][]mapreduce.Injection
	var scenarioErr error
	for _, st := range setups {
		f, err := failures(st)
		if err != nil {
			scenarioErr = err
			break
		}
		fails = append(fails, f)
		sts = append(sts, fig8Runs(st, f)...)
	}
	res := runAll(sts)
	if scenarioErr != nil {
		return nil, scenarioErr
	}
	slowdowns := make(map[string][]float64)
	for k, st := range setups {
		n := len(fig8Strategies)
		runs := fig8Rows(st, fails[k], res[k*n:(k+1)*n])
		totals := make([]float64, len(runs))
		for i, sr := range runs {
			totals[i] = sr.total
		}
		slow := vsBest(totals)
		for _, label := range strategies {
			i := slices.IndexFunc(runs, func(sr fig8Row) bool { return sr.label == label })
			if i < 0 {
				slowdowns[label] = append(slowdowns[label], math.NaN())
				continue
			}
			slowdowns[label] = append(slowdowns[label], slow[i])
			r.Values[label+" @ "+st.name] = slow[i]
			addSpeculationValues(r, c, label+" @ "+st.name, runs[i].res)
		}
	}
	var rows [][]string
	for _, label := range strategies {
		row := []string{label}
		for _, v := range slowdowns[label] {
			row = append(row, textplot.Num(v))
		}
		rows = append(rows, row)
	}
	r.Text = textplot.Table(name+" (slowdown vs fastest)", header, rows)
	return r, nil
}

// Fig8a reproduces Figure 8a: no failures; RCMP vs REPL-2 vs REPL-3 vs
// OPTIMISTIC (equal to RCMP NO-SPLIT without failures).
func Fig8a(c Config) (*Result, error) {
	return fig8("Fig8a: no failure", c,
		func(setup) ([]mapreduce.Injection, error) { return nil, nil },
		[]string{"RCMP NO-SPLIT", "OPTIMISTIC", "HADOOP REPL-2", "HADOOP REPL-3"})
}

// Fig8b reproduces Figure 8b: a single failure early (at job 2).
func Fig8b(c Config) (*Result, error) {
	return fig8(failureNote(c, "Fig8b: single failure early (job 2)"), c,
		func(st setup) ([]mapreduce.Injection, error) { return failureScenario(c, st, 2) },
		[]string{"RCMP SPLIT", "RCMP NO-SPLIT", "HADOOP REPL-2", "HADOOP REPL-3", "OPTIMISTIC"})
}

// Fig8c reproduces Figure 8c: a single failure late (at job 7).
func Fig8c(c Config) (*Result, error) {
	lastJob := func(st setup) ([]mapreduce.Injection, error) { return failureScenario(c, st, st.cfg.NumJobs) }
	return fig8(failureNote(c, "Fig8c: single failure late (job 7)"), c, lastJob,
		[]string{"RCMP SPLIT", "RCMP NO-SPLIT", "HADOOP REPL-2", "HADOOP REPL-3", "OPTIMISTIC"})
}

// ---- Figure 9 ----

// Fig9 reproduces the double-failure comparison on STIC: FAIL X,Y injects
// at started-runs X and Y (the paper's job numbering counts recomputation
// runs). RCMP is run with split-8 and without; Hadoop uses REPL-3.
func Fig9(c Config) (*Result, error) {
	r := newResult("Fig9: double failures (STIC, SLOTS 1-1)")
	st := sticSetup(c, 1, 1)
	last := st.cfg.NumJobs
	mid := last/2 + 1 // job 4 on the paper's 7-job chain

	type scenario struct {
		label        string
		rcmpX, rcmpY int // RCMP injection runs
		hadX, hadY   int // Hadoop injection runs (no recomputation: plain job numbers)
	}
	// For RCMP, the paper's FAIL 7,14 second failure lands on the restarted
	// job 7 (run 14 = 7 initial runs + 6 recomputes + restart); FAIL 4,7's
	// second failure is nested inside the recovery of the first.
	scenarios := []scenario{
		{"FAIL 2,2", 2, 2, 2, 2},
		{fmt.Sprintf("FAIL %d,%d", last, last), last, last, last, last},
		{fmt.Sprintf("FAIL %d,%d", last, 2*last), last, 2 * last, last, last},
		{fmt.Sprintf("FAIL 2,%d", mid), 2, mid, 2, mid},
		{fmt.Sprintf("FAIL %d,%d nested", mid, last), mid, last, mid, last},
	}
	inject := func(x, y int) []mapreduce.Injection {
		first := mapreduce.Injection{AtRun: x, After: 15, Node: victim}
		second := mapreduce.Injection{AtRun: y, After: 15, Node: victim + 1}
		if x == y {
			second.After = 30 // paper: second failure 15s after the first
		}
		return []mapreduce.Injection{first, second}
	}
	strategies := []strategy{rcmpSplit, rcmpNoSplit, hadoopRepl3}
	var sts []setup
	for _, sc := range scenarios {
		for _, s := range strategies {
			stv := st.with(s)
			stv.cfg.Failures = inject(sc.rcmpX, sc.rcmpY)
			if s == hadoopRepl3 {
				stv.cfg.Failures = inject(sc.hadX, sc.hadY)
			}
			sts = append(sts, stv)
		}
	}
	res := runAll(sts)
	cols := []string{"RCMP S", "RCMP NO", "REPL-3"}
	var rows [][]string
	for k, sc := range scenarios {
		var totals []float64
		for _, rr := range res[k*len(strategies) : (k+1)*len(strategies)] {
			totals = append(totals, float64(rr.Total))
		}
		row := []string{sc.label}
		for i, slow := range vsBest(totals) {
			r.Values[cols[i]+" @ "+sc.label] = slow
			row = append(row, textplot.Num(slow))
		}
		rows = append(rows, row)
	}
	r.Text = textplot.Table(r.Name+" (slowdown vs best per scenario)",
		[]string{"scenario", "RCMP S" + textplot.Num(float64(splitRatioFor(st))), "RCMP NO", "REPL-3"}, rows)
	return r, nil
}

// ---- Figure 10 ----

// Fig10 reproduces the chain-length extrapolation: the slowdown of Hadoop
// REPL-2/REPL-3 versus RCMP (split) under a failure at job 2, for chains of
// 10 to 100 jobs, built from per-job averages measured on the 7-job chain
// (STIC, SLOTS 2-2 at paper scale).
func Fig10(c Config) (*Result, error) {
	// The extrapolation model is defined over one failure; a multi-failure
	// Schedule is ignored here the way Fig9/11/13/14 ignore FailureAt — so
	// the title must not carry a schedule note for data it did not drive.
	c.Schedule = failure.Schedule{}
	r := newResult(failureNote(c, "Fig10: longer chains (failure at job 2)"))
	st := sticSetup(c, 2, 2)
	failAt := effectiveFailureAt(c, 2)
	fails, err := singleFailure(c, st, 2)
	if err != nil {
		return nil, err
	}

	strategies := []strategy{rcmpSplit, hadoopRepl2, hadoopRepl3}
	sts := make([]setup, len(strategies))
	for i, s := range strategies {
		sts[i] = st.with(s)
		sts[i].cfg.Failures = fails
	}
	res := runAll(sts)
	rcmpRes := res[0]
	rcmpP := perJobFromRuns(rcmpRes, failAt)
	rec := recoveryFromRuns(rcmpRes, st)

	hadoopTotals := make(map[strategy]func(int) float64)
	for i, s := range strategies[1:] {
		hres := res[1+i]
		p := perJobFromRuns(hres, failAt)
		failedJob := failedRunDuration(hres, failAt)
		hadoopTotals[s] = func(jobs int) float64 {
			return analysis.HadoopTotalWithFailure(jobs, failAt, p, failedJob)
		}
	}
	rcmpTotal := func(jobs int) float64 {
		return analysis.RCMPTotalWithFailure(jobs, failAt, rcmpP, rec)
	}

	var xs []float64
	lengths := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, l := range lengths {
		xs = append(xs, float64(l))
	}
	series := map[string][]float64{
		"REPL-3": analysis.SlowdownSeries(lengths, hadoopTotals[hadoopRepl3], rcmpTotal),
		"REPL-2": analysis.SlowdownSeries(lengths, hadoopTotals[hadoopRepl2], rcmpTotal),
		"RCMP":   analysis.SlowdownSeries(lengths, rcmpTotal, rcmpTotal),
	}
	for _, repl := range []int{2, 3} {
		key := fmt.Sprintf("REPL-%d", repl)
		r.Values[key+" @ 10 jobs"] = series[key][0]
		r.Values[key+" @ 100 jobs"] = series[key][len(lengths)-1]
	}
	r.Text = textplot.Series(r.Name, "chain length", xs,
		[]string{"REPL-3", "REPL-2", "RCMP"}, series)
	return r, nil
}

// recoveryFromRuns measures an RCMP recovery episode from a failed run.
func recoveryFromRuns(res *mapreduce.Result, st setup) analysis.RCMPRecovery {
	var rec analysis.RCMPRecovery
	for _, runStat := range res.Runs {
		switch {
		case runStat.Cancelled:
			rec.Reaction += runStat.Duration()
		case runStat.Kind == metrics.RunRecompute:
			rec.RecomputeTotal += runStat.Duration()
		case runStat.Kind == metrics.RunRestart:
			rec.RestartDegraded += runStat.Duration()
		}
	}
	return rec
}

// failedRunDuration returns the duration of the run a failure hit (for
// Hadoop this is the job that absorbed the within-job recovery).
func failedRunDuration(res *mapreduce.Result, atRun int) float64 {
	for _, runStat := range res.Runs {
		if runStat.RunIndex == atRun {
			return runStat.Duration()
		}
	}
	return math.NaN()
}

// ---- Figure 11 ----

// Fig11 reproduces recomputation speed-up versus cluster size: DCO-style
// nodes with constant per-node work, a failure at the last job, split ratio
// N-1 versus no splitting. Speed-up is the mean initial job time over the
// mean recomputation-run time.
func Fig11(c Config) (*Result, error) {
	// The figure's x-axis IS the cluster size, so a Nodes override would
	// collapse every sweep point onto one size; it is ignored here the way
	// Fig10 ignores a multi-failure Schedule.
	c.Nodes = 0
	r := newResult("Fig11: recomputation speed-up vs nodes")
	nodeCounts := []int{12, 24, 36, 48, 60}
	if c.Scale == ScaleQuick {
		nodeCounts = []int{6, 10}
	}
	strategies := []strategy{rcmpNoSplit, rcmpSplit}
	var sts []setup
	for _, n := range nodeCounts {
		st := dcoSetup(c, n)
		st.cfg.NumJobs = 3
		st.cfg.Failures = fixedFailure(3)
		for _, s := range strategies {
			sts = append(sts, st.with(s))
		}
	}
	res := runAll(sts)
	var xs []float64
	series := map[string][]float64{}
	for k, n := range nodeCounts {
		for j, s := range strategies {
			su := recomputeSpeedup(res[k*len(strategies)+j])
			name := s.String()
			series[name] = append(series[name], su)
			r.Values[fmt.Sprintf("%s @ %d nodes", name, n)] = su
		}
		xs = append(xs, float64(n))
	}
	r.Text = textplot.Series(r.Name, "nodes", xs,
		[]string{"RCMP NO-SPLIT", "RCMP SPLIT"}, series)
	return r, nil
}

// recomputeSpeedup compares mean initial job time against mean
// recomputation-run time.
func recomputeSpeedup(res *mapreduce.Result) float64 {
	rec := res.Recorder
	init := rec.MeanRunDuration(func(s metrics.RunStat) bool { return s.Kind == metrics.RunInitial })
	recomp := rec.MeanRunDuration(func(s metrics.RunStat) bool { return s.Kind == metrics.RunRecompute })
	return init / recomp
}

// ---- Figure 12 ----

// Fig12 reproduces the hot-spot CDF: mapper running times during the
// recomputation runs of a late failure on STIC SLOTS 2-2, with and without
// splitting.
func Fig12(c Config) (*Result, error) {
	r := newResult(failureNote(c, "Fig12: mapper time CDF under recomputation"))
	st := sticSetup(c, 2, 2)
	fails, err := failureScenario(c, st, st.cfg.NumJobs)
	if err != nil {
		return nil, err
	}
	st.cfg.Failures = fails
	st.cfg.NoTaskSamples = false

	splits := []bool{false, true}
	sts := make([]setup, len(splits))
	for i, split := range splits {
		sts[i] = st
		sts[i].cfg.Split = split
		if split {
			sts[i].cfg.SplitRatio = 8
		}
	}
	runs := runAll(sts)
	var names []string
	cdfs := make(map[string]metrics.CDF)
	for i, split := range splits {
		res := runs[i]
		durs := res.Recorder.TaskDurations(func(ts metrics.TaskSample) bool {
			return ts.Kind == metrics.TaskMap && ts.RunKind == metrics.RunRecompute
		})
		cdf := metrics.NewCDF(durs)
		name := "RCMP NO-SPLIT"
		if split {
			name = "RCMP SPLIT IN 8"
		}
		names = append(names, name)
		cdfs[name] = cdf
		r.Values[name+" median"] = cdf.Median()
		r.Values[name+" p95"] = cdf.Percentile(0.95)

		redDurs := res.Recorder.TaskDurations(func(ts metrics.TaskSample) bool {
			return ts.Kind == metrics.TaskReduce && ts.RunKind == metrics.RunRecompute
		})
		r.Values[name+" reducer median"] = metrics.NewCDF(redDurs).Median()
	}
	// Render both CDFs over a shared grid of mapper seconds.
	hi := math.Max(r.Values[names[0]+" p95"], r.Values[names[1]+" p95"]) * 1.2
	var xs []float64
	series := make(map[string][]float64)
	for x := 0.0; x <= hi; x += hi / 16 {
		xs = append(xs, x)
	}
	for _, name := range names {
		var ys []float64
		for _, x := range xs {
			ys = append(ys, 100*cdfs[name].At(x))
		}
		series[name] = ys
	}
	r.Text = textplot.Series(r.Name, "mapper seconds (CDF %)", xs, names, series)
	return r, nil
}

// ---- Figures 13 and 14 ----

// Fig13 reproduces the reducer-wave speed-up: initial runs with 1, 2 and 4
// reducer waves; recomputed reducers always fit one wave; map outputs are
// not reused so the reduce phase is isolated; FAST vs SLOW shuffle.
func Fig13(c Config) (*Result, error) {
	return waveSweep(c, "Fig13: speed-up from fewer reducer waves", " (x = initial reducer waves : recompute waves)",
		"waves", "%d:1", []int{1, 2, 4}, func(st *setup, w int) {
			st.cfg.NumReducers = st.ccfg.Nodes * w
			st.cfg.NoMapOutputReuse = true
		}), nil
}

// Fig14 reproduces the mapper-wave speed-up: one reducer wave throughout,
// and the number of mapper waves during recomputation dialed from 2 to 18
// via ForceRecomputeMappers; FAST vs SLOW shuffle.
func Fig14(c Config) (*Result, error) {
	waves := []int{2, 6, 10, 14, 18}
	if c.Scale == ScaleQuick {
		waves = []int{2, 6}
	}
	return waveSweep(c, "Fig14: speed-up vs recomputation mapper waves", "",
		"recompute mapper waves", "%d waves", waves, func(st *setup, w int) {
			st.cfg.NumReducers = st.ccfg.Nodes
			if c.Scale == ScaleQuick {
				// Keep enough initial mapper waves that the map phase
				// dominates, so the wave effect is visible at small scale.
				st.cfg.InputPerNode = cluster.GB
				st.cfg.BlockSize = 64 * cluster.MB
			}
			// w waves over the surviving nodes' map slots.
			st.cfg.ForceRecomputeMappers = w * (st.ccfg.Nodes - 1) * st.ccfg.MapSlots
		}), nil
}

// waveSweep is the experiment of Figures 13 and 14: a 2-job STIC chain
// that loses a node in job 2, run at each wave count (which shape dials
// into the setup) under FAST and SLOW shuffle and scored by
// recomputeSpeedup. point formats a wave count into its Values key.
func waveSweep(c Config, name, note, xLabel, point string, waves []int, shape func(st *setup, w int)) *Result {
	r := newResult(name)
	shuffles := []string{"FAST SHUFFLE", "SLOW SHUFFLE"}
	series := map[string][]float64{}
	var sts []setup
	for _, w := range waves {
		for _, shuffle := range shuffles {
			st := sticSetup(c, 1, 1)
			st.cfg.NumJobs = 2
			st.cfg.Failures = fixedFailure(2)
			shape(&st, w)
			if shuffle == "SLOW SHUFFLE" {
				st.ccfg.ShuffleTransferDelay = 10
			}
			sts = append(sts, st)
		}
	}
	res := runAll(sts)
	var xs []float64
	for k, w := range waves {
		for j, shuffle := range shuffles {
			su := recomputeSpeedup(res[k*len(shuffles)+j])
			series[shuffle] = append(series[shuffle], su)
			r.Values[shuffle+" @ "+fmt.Sprintf(point, w)] = su
		}
		xs = append(xs, float64(w))
	}
	r.Text = textplot.Series(r.Name+note, xLabel, xs, shuffles, series)
	return r
}

// ---- Hybrid (Section IV-C) ----

// Hybrid reproduces the hybrid data point of Section V-B: replication
// factor 2 once every 5 jobs combined with recomputation, under the late
// single failure, compared to pure RCMP with splitting.
func Hybrid(c Config) (*Result, error) {
	r := newResult(failureNote(c, "Hybrid: replicate every 5th job + recompute"))
	st := sticSetup(c, 1, 1)
	last := st.cfg.NumJobs
	fails, err := failureScenario(c, st, last)
	if err != nil {
		return nil, err
	}

	pure := st.with(rcmpSplit)
	pure.cfg.Failures = fails
	hyb := pure
	hyb.cfg.HybridEveryK = 5
	hyb.cfg.HybridRepl = 2
	res := runAll([]setup{pure, hyb})
	pureT, hybT := float64(res[0].Total), float64(res[1].Total)

	r.Values["pure RCMP"] = 1
	r.Values["hybrid vs pure"] = hybT / pureT
	r.Text = textplot.Bars(r.Name, []string{"RCMP SPLIT", "HYBRID every-5"},
		[]float64{1, hybT / pureT}, 0.05)
	return r, nil
}
