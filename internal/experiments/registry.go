package experiments

import (
	"fmt"
	"slices"
)

// Spec is one registered experiment artifact: a figure, table or ablation
// of the paper's evaluation. The registry is the single source of truth the
// CLI, the parallel runner and the benchmarks enumerate — a new Fig* or
// Ablation* function is added here once and every consumer picks it up
// (registry_test.go enforces the invariant).
type Spec struct {
	// Key is the short CLI selector ("8a", "ablation-reuse", ...).
	Key string
	// Name is the display name prefix of the produced Result.
	Name string
	// Desc is a one-line description for -list output.
	Desc string
	// Scale and Seed are the per-spec defaults: All and runner sweeps fall
	// back to them for any dimension the caller leaves unspecified.
	Scale Scale
	Seed  int64
	// Run executes the experiment. Equal Configs yield identical Results.
	// A non-nil error means the Config was invalid for this figure (e.g. a
	// FailureAt or Schedule beyond the chain length), never that the
	// simulation misbehaved — simulator bugs still panic.
	Run func(Config) (*Result, error)
	// MultiTenant marks experiments that interpret Config.Tenants: a
	// tenant sweep over any other spec is a per-job config error.
	MultiTenant bool
	// Cost is the experiment's measured wall-clock weight at ScalePaper and
	// ScaleQuick (ms per run on an idle machine; only the relative order
	// matters). The runner starts sweep jobs cost-descending — the LPT
	// heuristic — so a long-pole experiment never starts last and drags
	// the pool's makespan. An unmeasured spec weighs 0 and starts after
	// every measured one.
	Cost [2]float64
}

// RelativeCost returns the spec's scheduling weight at one scale.
func (sp Spec) RelativeCost(sc Scale) float64 {
	if sc < 0 || int(sc) >= len(sp.Cost) {
		sc = ScalePaper
	}
	return sp.Cost[sc]
}

// Exec runs the experiment after the per-job Config checks, so an
// out-of-range override is the job's error instead of a deep panic inside
// a setup. A simulation that fails inside the figure (see chainError) is
// the job's error as well; any other panic propagates with its stack. A
// Config without a Worker (see WithWorker) runs on a fresh one as wide as
// GOMAXPROCS.
func (sp Spec) Exec(c Config) (res *Result, err error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Tenants > 1 && !sp.MultiTenant {
		return nil, fmt.Errorf("experiments: %s is single-tenant; Tenants=%d only applies to multi-tenant experiments",
			sp.Name, c.Tenants)
	}
	c.worker = c.owner()
	defer func() {
		if p := recover(); p != nil {
			ce, ok := p.(chainError)
			if !ok {
				panic(p)
			}
			res, err = nil, ce.err
		}
	}()
	return sp.Run(c)
}

// Registry returns every experiment in presentation order. The slice is
// freshly allocated; callers may filter or reorder it.
func Registry() []Spec { return slices.Clone(registry[:]) }

// registry is the experiment table Registry copies and Lookup searches.
var registry = [...]Spec{
	{Key: "2", Name: "Fig2", Desc: "failure-trace CDFs (STIC, SUG@R)", Run: Fig2, Cost: [2]float64{0.3, 0.4}},
	{Key: "8a", Name: "Fig8a", Desc: "no-failure slowdowns: RCMP vs REPL-2/3 vs OPTIMISTIC", Run: Fig8a, Cost: [2]float64{950, 4.9}},
	{Key: "8b", Name: "Fig8b", Desc: "single failure early (job 2)", Run: Fig8b, Cost: [2]float64{1180, 2.4}},
	{Key: "8c", Name: "Fig8c", Desc: "single failure late (job 7)", Run: Fig8c, Cost: [2]float64{1150, 2.3}},
	{Key: "9", Name: "Fig9", Desc: "double failures on STIC", Run: Fig9, Cost: [2]float64{195, 9.9}},
	{Key: "10", Name: "Fig10", Desc: "chain-length extrapolation", Run: Fig10, Cost: [2]float64{46, 6.1}},
	{Key: "11", Name: "Fig11", Desc: "recomputation speed-up vs nodes", Run: Fig11, Cost: [2]float64{550, 9.2}},
	{Key: "12", Name: "Fig12", Desc: "hot-spot mapper-time CDFs", Run: Fig12, Cost: [2]float64{35, 2.1}},
	{Key: "13", Name: "Fig13", Desc: "reducer-wave speed-up", Run: Fig13, Cost: [2]float64{15, 2.9}},
	{Key: "14", Name: "Fig14", Desc: "mapper-wave speed-up", Run: Fig14, Cost: [2]float64{50, 13}},
	{Key: "hybrid", Name: "Hybrid", Desc: "hybrid replication every 5 jobs", Run: Hybrid, Cost: [2]float64{28, 1.3}},
	{Key: "double-failure", Name: "DoubleFailure", Desc: "second failure lands mid-recomputation (schedule engine)", Run: DoubleFailure, Cost: [2]float64{32, 1.8}},
	{Key: "trace-replay", Name: "TraceReplay", Desc: "recomputation work per day under STIC/SUG@R trace schedules", Run: TraceReplay, Cost: [2]float64{133, 5.8}},
	{Key: "weak-scaling", Name: "WeakScaling", Desc: "fixed per-node work, cluster size swept 64→4096 (aggregated shuffle)", Run: WeakScaling, Cost: [2]float64{400, 1.5}},
	{Key: "dag-recovery", Name: "DAGRecovery", Desc: "diamond DAG fan-in cascade: surviving-branch reuse vs replication", Run: DAGRecovery, Cost: [2]float64{30, 1.5}},
	{Key: "multi-tenant", Name: "MultiTenant", Desc: "shared-cluster tenants: recovery time vs utilization, SPLIT vs NO-SPLIT", Run: MultiTenant, MultiTenant: true, Cost: [2]float64{600, 8}},
	{Key: "ablation-scatter", Name: "AblationScatterVsSplit", Desc: "split vs scatter-only vs none", Run: AblationScatterVsSplit, Cost: [2]float64{35, 1.5}},
	{Key: "ablation-ratio", Name: "AblationSplitRatio", Desc: "split ratio sweep", Run: AblationSplitRatio, Cost: [2]float64{50, 1.7}},
	{Key: "ablation-reuse", Name: "AblationMapReuse", Desc: "map-output reuse on/off", Run: AblationMapReuse, Cost: [2]float64{27, 1.1}},
	{Key: "ablation-timeout", Name: "AblationDetectionTimeout", Desc: "detection timeout sweep", Run: AblationDetectionTimeout, Cost: [2]float64{51, 2.8}},
	{Key: "ablation-ioratio", Name: "AblationIORatio", Desc: "input/shuffle/output ratio shapes", Run: AblationIORatio, Cost: [2]float64{17, 0.8}},
	{Key: "ablation-reclaim", Name: "AblationReclamation", Desc: "checkpoint storage reclamation", Run: AblationReclamation, Cost: [2]float64{23, 1.1}},
	{Key: "ablation-speculation", Name: "AblationSpeculation", Desc: "speculative execution with a straggler", Run: AblationSpeculation, Cost: [2]float64{9.5, 0.8}},
	{Key: "ablation-locality", Name: "AblationLocality", Desc: "data locality vs oversubscription", Run: AblationLocality, Cost: [2]float64{13, 1.3}},
	{Key: "cost", Name: "CostModels", Desc: "Section III-B provisioning and replication-guesswork models", Run: CostModels, Cost: [2]float64{0.03, 0.04}},
}

// Lookup returns the spec with the given CLI key.
func Lookup(key string) (Spec, bool) {
	for _, sp := range registry {
		if sp.Key == key {
			return sp, true
		}
	}
	return Spec{}, false
}
