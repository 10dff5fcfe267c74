package xval

import (
	"fmt"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/failure"
	"rcmp/internal/mapreduce"
)

// simBlockBytes is the simulator-side block size. One dmr record maps to a
// fixed slice of it; only the block count matters for decision alignment,
// so any size that keeps DCO runs comfortably longer than the scaled
// detection timeout works.
const simBlockBytes = 64 * cluster.MB

// simOutcome is one simulator execution of the spec.
type simOutcome struct {
	runSeconds []float64 // per started run, in order
	total      float64   // chain makespan, simulated seconds
	runs       []startedRun
	episodes   []core.Episode
}

// simCluster shapes the simulated cluster from the spec: the paper's DCO
// profile at the spec's size and slot counts.
func simCluster(spec Spec, detect float64) cluster.Config {
	ccfg := cluster.DCOConfig(spec.Nodes, spec.Slots, spec.Slots)
	if detect > 0 {
		ccfg.FailureDetectionTimeout = des.Time(detect)
	}
	return ccfg
}

func simChain(spec Spec) mapreduce.ChainConfig {
	return mapreduce.ChainConfig{
		Mode:             mapreduce.ModeRCMP,
		NumJobs:          spec.Jobs,
		NumReducers:      spec.Reducers,
		InputPerNode:     int64(spec.BlocksPerPartition) * simBlockBytes,
		BlockSize:        simBlockBytes,
		InputRepl:        spec.InputRepl,
		Split:            spec.Split,
		SplitRatio:       spec.SplitRatio,
		ScatterOnly:      spec.ScatterOnly,
		NoMapOutputReuse: spec.NoMapOutputReuse,
		Seed:             spec.Seed,
	}
}

// runSim executes the spec in the simulator. kills maps each pulse to its
// pre-selected victims; offsets carries the per-pulse delay in simulated
// seconds (already scaled from the fraction by the caller). Baselines pass
// an empty schedule and detect <= 0.
func runSim(spec Spec, sched failure.Schedule, kills [][]int, offsets []float64, detect float64) (*simOutcome, error) {
	cfg := simChain(spec)
	for i, p := range sched.Pulses {
		for _, victim := range kills[i] {
			cfg.Failures = append(cfg.Failures, mapreduce.Injection{
				AtRun: p.AtRun,
				After: des.Time(offsets[i]),
				Node:  victim,
				Count: 1,
			})
		}
	}
	res, err := mapreduce.RunChain(simCluster(spec, detect), cfg)
	if err != nil {
		return nil, fmt.Errorf("xval: simulator run %q: %w", sched.Label(), err)
	}
	out := &simOutcome{total: float64(res.Total), episodes: res.Episodes}
	for _, r := range res.Runs {
		out.runSeconds = append(out.runSeconds, r.Duration())
		out.runs = append(out.runs, startedRun{r.Job, r.Kind, r.Cancelled})
	}
	return out, nil
}
