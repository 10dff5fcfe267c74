package experiments

import (
	"fmt"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
	"rcmp/internal/textplot"
)

// weakscaling.go is the scaling benchmark tier: a weak-scaling sweep that
// holds per-node work fixed while the simulated cluster grows 64→4096
// nodes, pinning both what the simulated system does at scale (does the
// chain finish in roughly flat simulated time?) and what the simulator
// costs (BenchmarkClusterScaling in the repo root normalizes wall-clock
// by this experiment's event counts into ns per simulated event — the
// ≤1.5x growth target docs/perf.md tracks).
//
// The sweep runs on the aggregated shuffle tier at every size — including
// the smallest — so ns-per-event growth across the sweep measures the
// algorithms, not a model switch; the DCO-style cluster shape and the
// 1:1:1 job are the paper's.

// weakScalingSizes is the paper-scale sweep; quick scale shrinks it for
// tests and verify smoke runs.
var weakScalingSizes = []int{64, 256, 1024, 4096}
var weakScalingSizesQuick = []int{16, 64}

// WeakScalingSetup builds the fixed per-node workload at one cluster
// size: 2 map blocks and 1 reducer per node, a 2-job RCMP chain, no
// failures. Exported so the scaling benchmarks drive the identical
// configuration the registered experiment pins.
func WeakScalingSetup(c Config, nodes int) (cluster.Config, mapreduce.ChainConfig) {
	perNode := int64(128 * cluster.MB)
	if c.Scale == ScaleQuick {
		perNode = 32 * cluster.MB
	}
	ccfg := cluster.DCOConfig(nodes, 1, 1)
	cfg := mapreduce.ChainConfig{
		Mode:               mapreduce.ModeRCMP,
		NumJobs:            2,
		NumReducers:        nodes,
		InputPerNode:       perNode,
		BlockSize:          perNode / 2,
		Seed:               c.Seed,
		ShuffleAggregation: mapreduce.ShuffleAggOn,
		NoTaskSamples:      true,
	}
	return ccfg, cfg
}

// WeakScaling sweeps cluster size with fixed per-node work and reports,
// per size, the simulated completion time and the simulation's own event
// and flow counts. Events per node is the headline value: with per-node
// work fixed it must stay nearly flat, which is what makes wall-clock /
// events a size-comparable cost metric. A positive Config.Nodes selects
// that single sweep point. Failure knobs (FailureAt, Schedule) do not
// apply: the sweep is failure-free by construction.
func WeakScaling(c Config) (*Result, error) {
	r := newResult("WeakScaling: fixed per-node work, cluster size sweep")
	sizes := weakScalingSizes
	if c.Scale == ScaleQuick {
		sizes = weakScalingSizesQuick
	}
	if c.Nodes > 0 {
		sizes = []int{c.Nodes}
	}
	// The sizes run one after another, unlike other figures' runs: beside
	// the 4096-node context, a lane's 1024-node one would raise the
	// process's peak memory by a third for a few percent of this figure's
	// time.
	w := c.owner()
	var rows [][]string
	for _, n := range sizes {
		ccfg, cfg := WeakScalingSetup(c, n)
		res, err := w.runChain(c.Engine, ccfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: weak-scaling @%d nodes: %w", n, err)
		}
		evPerNode := float64(res.Events) / float64(n)
		r.Values[fmt.Sprintf("sim-seconds @ %d", n)] = float64(res.Total)
		r.Values[fmt.Sprintf("events @ %d", n)] = float64(res.Events)
		r.Values[fmt.Sprintf("events/node @ %d", n)] = evPerNode
		r.Values[fmt.Sprintf("flows @ %d", n)] = float64(res.Flows)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			textplot.Num(float64(res.Total)),
			fmt.Sprintf("%d", res.Events),
			textplot.Num(evPerNode),
			fmt.Sprintf("%d", res.Flows),
		})
	}
	r.Text = textplot.Table(r.Name+" (aggregated shuffle tier)",
		[]string{"nodes", "sim seconds", "events", "events/node", "flows"}, rows)
	return r, nil
}
