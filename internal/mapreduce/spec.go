// Package mapreduce is a flow-level MapReduce execution engine driving the
// cluster simulator. It models jobs the way Hadoop 1.x runs them — mapper
// and reducer slots, task waves, an all-to-all shuffle with bounded fetch
// parallelism, replication-pipelined output writes — and implements both
// failure-resilience strategies the RCMP paper compares:
//
//   - Hadoop-style data replication with within-job task recovery
//     (REPL-2 / REPL-3 baselines), and
//   - RCMP: replication factor 1, task outputs persisted across jobs, and
//     on data loss a cancelled job plus a minimal cascade of partial job
//     recomputations (optionally with reducer splitting).
//
// The engine executes chains of identical I/O-bound jobs (the paper's
// 7-job workload) but each job carries its own size ratios, so shuffle- or
// output-heavy shapes can be expressed too.
package mapreduce

import (
	"fmt"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/metrics"
)

// Mode selects the failure-resilience strategy for a chain execution.
type Mode int

const (
	// ModeRCMP runs with replication factor 1 and recovers from data loss
	// by cascading partial job recomputation.
	ModeRCMP Mode = iota
	// ModeHadoop runs with output replication and recovers from failures
	// within the running job, Hadoop-style. Irreversible data loss aborts
	// the chain.
	ModeHadoop
)

func (m Mode) String() string {
	switch m {
	case ModeRCMP:
		return "RCMP"
	case ModeHadoop:
		return "Hadoop"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Injection schedules a node failure relative to a started job run, the way
// the paper injects them ("15s after the start of job X"; for double
// failures in the same job, the second 15s after the first).
type Injection struct {
	// AtRun is the 1-based started-run counter the failure is tied to.
	// Recomputation and restart runs increment the counter too, matching
	// the paper's job numbering (Section V-A).
	AtRun int
	// After is the delay from that run's start.
	After des.Time
	// Node is the victim node ID, or -1 to pick a deterministic
	// pseudo-random alive node from the chain's seed.
	Node int
	// Count is how many nodes fail together at this injection — the
	// paper's outage days (Figure 2) lose several machines at once. 0 and
	// 1 both mean a single node. Victims beyond the first are always drawn
	// like Node: -1 (seeded pseudo-random alive nodes); the cluster is
	// never killed below one alive node.
	Count int
}

// ChainConfig describes a whole multi-job computation.
type ChainConfig struct {
	Mode Mode

	NumJobs     int
	NumReducers int // reducers per job

	InputPerNode int64 // bytes of job-1 input per cluster node
	BlockSize    int64 // DFS block size (default 256 MiB)
	InputRepl    int   // replication of the original input (default 3)

	// OutputRepl is the replication factor for job outputs (Hadoop: 2 or 3;
	// RCMP: 1). Default 1.
	OutputRepl int

	// HybridEveryK/HybridRepl enable RCMP's hybrid policy: every K-th job's
	// output is written with HybridRepl replicas (Section IV-C). Zero K
	// disables.
	HybridEveryK int
	HybridRepl   int

	// ReclaimAtCheckpoints releases the persisted outputs that a completed
	// hybrid checkpoint makes unreachable for any recovery: older jobs' map
	// outputs and intermediate files (Section IV-C). Requires HybridEveryK.
	ReclaimAtCheckpoints bool

	// Split enables reducer splitting during recomputation; SplitRatio is
	// the split count (0 = one split per surviving node).
	Split      bool
	SplitRatio int

	// NoMapOutputReuse turns off recomputation's reuse of persisted map
	// outputs (RCMP's default): the planner re-runs every mapper of a
	// recomputed job, which isolates the wave-reduction speed-up the way
	// Section V-D does. Only meaningful in ModeRCMP.
	NoMapOutputReuse bool

	// ScatterOnly is the Section IV-B2 alternative to splitting: reducers
	// are not split, but a recomputed reducer spreads its output blocks
	// over all alive nodes instead of writing locally. Mutually exclusive
	// with Split.
	ScatterOnly bool

	// ForceRecomputeMappers pads every recomputation step to re-execute at
	// least this many mappers, regardless of how many outputs were lost.
	// Section V-D uses this to dial the number of mapper waves during
	// recomputation (Figure 14). Zero disables. Only meaningful in ModeRCMP.
	ForceRecomputeMappers int

	// MapOutputRatio and ReduceOutputRatio shape job I/O: map output bytes
	// per input byte, and reducer output bytes per shuffle byte. Defaults 1
	// (the paper's 1:1:1 sort-like job).
	MapOutputRatio    float64
	ReduceOutputRatio float64

	// FetchParallelism bounds concurrent shuffle fetches per reducer
	// (Hadoop's mapred.reduce.parallel.copies; default 5).
	FetchParallelism int

	// NoTaskSamples skips per-task metrics samples (Result.Recorder.Tasks
	// stays empty; run-level stats are unaffected). Scaling sweeps record
	// O(nodes) samples per run that no scaling metric reads — at thousand-
	// node sizes that volume alone dominates the allocator and the GC.
	NoTaskSamples bool

	// ShuffleAggregation selects how shuffle fetches map onto the flow
	// network. The exact tier (the historical model) tracks one bucket per
	// (reducer, source node) and one coalescing trunk per communicating
	// node pair — per-node hot-spots are exact, but per-reducer state and
	// arbitration units grow with cluster size. The aggregated tier keeps
	// one bucket per reducer (the per-destination aggregate of every
	// source's contribution) and runs fetches over the cluster-wide
	// shuffle pools sized from the alive count (cluster.AggShuffleUses);
	// the core switch stays exact, so the contention that matters at scale
	// — oversubscription — is preserved, while per-node endpoint
	// hot-spots and failure-time per-source fetch attribution are averaged
	// out. ShuffleAggAuto (the zero value) picks the exact tier below
	// ShuffleAggThreshold nodes and the aggregated tier at or above it, so
	// every paper-scale experiment keeps its historical behaviour and
	// thousand-node runs stay tractable.
	ShuffleAggregation ShuffleAggregation

	// Speculation enables speculative execution of straggling mappers
	// (Section II): a mapper running longer than core.SpeculationFactor
	// times the mean completed-mapper duration is duplicated on another
	// node; the first copy to finish wins and the other is killed.
	// Available in both modes — the paper treats it as an orthogonal
	// task-level mechanism.
	Speculation bool

	// DisableLocality removes the scheduler's data-local placement
	// preference for mappers, for the Section III-A locality experiments.
	DisableLocality bool

	Failures []Injection
	// Seed drives deterministic victim selection for Node:-1 injections.
	Seed int64
}

// ShuffleAggregation selects the shuffle modelling tier; see the
// ChainConfig field.
type ShuffleAggregation int

const (
	// ShuffleAggAuto aggregates at or above ShuffleAggThreshold nodes.
	ShuffleAggAuto ShuffleAggregation = iota
	// ShuffleAggOff forces the exact per-(source, destination) tier.
	ShuffleAggOff
	// ShuffleAggOn forces the aggregated per-destination tier.
	ShuffleAggOn
)

// ShuffleAggThreshold is the cluster size at which ShuffleAggAuto switches
// to the aggregated shuffle tier. Every cluster shape the paper's
// experiments use (STIC: 10, DCO: up to 60) stays well below it, so the
// golden digests never see the aggregated model unless asked for.
const ShuffleAggThreshold = 128

// aggregatedShuffle resolves the tier for a cluster of the given size.
func (c *ChainConfig) aggregatedShuffle(nodes int) bool {
	switch c.ShuffleAggregation {
	case ShuffleAggOn:
		return true
	case ShuffleAggOff:
		return false
	default:
		return nodes >= ShuffleAggThreshold
	}
}

func (c *ChainConfig) withDefaults() ChainConfig {
	out := *c
	if out.BlockSize == 0 {
		out.BlockSize = 256 * cluster.MB
	}
	if out.InputRepl == 0 {
		out.InputRepl = 3
	}
	if out.OutputRepl == 0 {
		out.OutputRepl = 1
	}
	if out.MapOutputRatio == 0 {
		out.MapOutputRatio = 1
	}
	if out.ReduceOutputRatio == 0 {
		out.ReduceOutputRatio = 1
	}
	if out.FetchParallelism == 0 {
		out.FetchParallelism = 5
	}
	if out.HybridEveryK > 0 && out.HybridRepl == 0 {
		out.HybridRepl = 2
	}
	return out
}

// WithDefaults returns a copy of the config with every defaultable field
// resolved — the exact rules the engine applies before running a chain.
// The analytic twin (internal/analytic) evaluates its closed-form model on
// the defaulted config so both engines see identical job shapes.
func (c ChainConfig) WithDefaults() ChainConfig {
	return c.withDefaults()
}

// Validate reports chain configuration errors.
func (c *ChainConfig) Validate() error {
	switch {
	case c.NumJobs <= 0:
		return fmt.Errorf("mapreduce: NumJobs=%d", c.NumJobs)
	case c.NumReducers <= 0:
		return fmt.Errorf("mapreduce: NumReducers=%d", c.NumReducers)
	case c.InputPerNode <= 0:
		return fmt.Errorf("mapreduce: InputPerNode=%d", c.InputPerNode)
	case c.Split && c.ScatterOnly:
		return fmt.Errorf("mapreduce: Split and ScatterOnly are mutually exclusive")
	case c.Mode == ModeHadoop && (c.HybridEveryK > 0 || c.Split || c.NoMapOutputReuse || c.ScatterOnly || c.ForceRecomputeMappers > 0 || c.ReclaimAtCheckpoints):
		return fmt.Errorf("mapreduce: RCMP-only options set in Hadoop mode")
	case c.ReclaimAtCheckpoints && c.HybridEveryK <= 0:
		return fmt.Errorf("mapreduce: ReclaimAtCheckpoints requires HybridEveryK")
	}
	return nil
}

// Result summarizes one chain execution.
type Result struct {
	// Total is the virtual time from chain start to last job completion.
	Total des.Time
	// Runs lists every started job run in order.
	Runs []metrics.RunStat
	// Recorder holds the full task- and run-level samples.
	Recorder *metrics.Recorder
	// StartedRuns is the total number of job runs started (the paper's job
	// numbering: 7 for a failure-free 7-job chain, 14 for case (c)).
	StartedRuns int
	// Episodes records every recovery plan the chain's cursor adopted, in
	// order, as built, checked and padded by ForceRecomputeMappers. The
	// analytic twin keeps no per-task layout, so its steps name their job
	// only.
	Episodes []core.Episode
	// SpeculativeLaunched and SpeculativeWasted count duplicate mapper
	// launches and the subset that lost the race (killed after the other
	// copy finished) — the paper's "speculative tasks that provide no
	// benefit".
	SpeculativeLaunched int
	SpeculativeWasted   int
	// Events is the number of simulator events the chain fired and Flows
	// the number of transfers completed; Events is the denominator scaling
	// benchmarks normalize wall-clock by (ns per simulated event).
	Events uint64
	Flows  uint64
}
