package xval

import (
	"fmt"
	"sync"
	"time"

	"rcmp/internal/core"
	"rcmp/internal/dmr"
	"rcmp/internal/failure"
	"rcmp/internal/metrics"
	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// dmrOutcome is one real-runtime execution of the spec.
type dmrOutcome struct {
	runDurations []time.Duration // per started run, in order
	total        time.Duration   // wall time of the chain execution
	runs         []startedRun
	episodes     []core.Episode
	digests      []workload.Digest
}

// dmrCluster is a non-test sibling of the dmr package's test harness: one
// master plus Nodes workers on loopback TCP, optionally behind a chaos
// transport.
type dmrCluster struct {
	m       *dmr.Master
	workers []*dmr.Worker
}

func (c *dmrCluster) close() {
	for _, w := range c.workers {
		w.Kill()
	}
	if c.m != nil {
		c.m.Close()
	}
}

// chaosFor builds the spec's fault injector and retry policy, nil/zero when
// chaos is off. Each cluster gets a fresh injector (the endpoint registry
// is per-cluster) but the same seed, so baseline and case runs see the same
// fault stream.
func chaosFor(spec Spec) (*wire.Chaos, wire.RetryPolicy) {
	if !spec.Chaos {
		return nil, wire.RetryPolicy{}
	}
	ch := &wire.Chaos{
		Seed:     spec.ChaosSeed,
		Latency:  spec.Latency,
		Jitter:   spec.Jitter,
		DropProb: spec.DropProb,
	}
	return ch, wire.RetryPolicy{Max: spec.Retries, Seed: spec.ChaosSeed + 1}
}

func startDMR(spec Spec, timing dmr.Timing) (*dmrCluster, error) {
	chaos, retry := chaosFor(spec)
	m, err := dmr.StartMaster(dmr.MasterConfig{
		SlotsPerWorker: spec.Slots,
		Timing:         timing,
		Chaos:          chaos,
		Retry:          retry,
	}, spec.BlockRecords)
	if err != nil {
		return nil, fmt.Errorf("xval: start master: %w", err)
	}
	c := &dmrCluster{m: m}
	for i := 0; i < spec.Nodes; i++ {
		w, err := dmr.StartWorker(dmr.WorkerConfig{
			ID:         i,
			MasterAddr: m.Addr(),
			Timing:     timing,
			TaskDelay:  spec.TaskDelay,
			Chaos:      chaos,
			Retry:      retry,
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("xval: start worker %d: %w", i, err)
		}
		c.workers = append(c.workers, w)
	}
	// Wait out worker registration: the chain must not start before the
	// master considers every worker alive.
	deadline := time.Now().Add(5 * time.Second)
	for len(m.AliveWorkers()) < spec.Nodes {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("xval: only %d/%d workers registered", len(m.AliveWorkers()), spec.Nodes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return c, nil
}

func dmrChain(spec Spec) dmr.ChainConfig {
	return dmr.ChainConfig{
		Jobs:                spec.Jobs,
		NumReducers:         spec.Reducers,
		InputParts:          spec.Nodes,
		RecordsPerPartition: spec.BlocksPerPartition * spec.BlockRecords,
		InputRepl:           spec.InputRepl,
		Split:               spec.Split,
		SplitRatio:          spec.SplitRatio,
		ScatterOnly:         spec.ScatterOnly,
		NoMapOutputReuse:    spec.NoMapOutputReuse,
		Seed:                spec.Seed,
	}
}

// runDMR executes the spec on the real runtime. offsets carries each
// pulse's delay as wall time (already scaled from the fraction by the
// caller); kills maps pulses to victim worker IDs. Baselines pass an empty
// schedule.
func runDMR(spec Spec, timing dmr.Timing, sched failure.Schedule, kills [][]int, offsets []time.Duration) (*dmrOutcome, error) {
	c, err := startDMR(spec, timing)
	if err != nil {
		return nil, err
	}
	defer c.close()

	cfg := dmrChain(spec)

	// Arm one timer per pulse when its run starts; the timer kills the
	// pre-selected victims after the scaled offset. Timers are stopped on
	// exit so a late one can't fire into a dismantled cluster.
	var timerMu sync.Mutex
	var timers []*time.Timer
	defer func() {
		timerMu.Lock()
		for _, t := range timers {
			t.Stop()
		}
		timerMu.Unlock()
	}()
	if !sched.Empty() {
		cfg.OnRunStart = func(run, job int, kind metrics.RunKind) {
			for i, p := range sched.Pulses {
				if p.AtRun != run {
					continue
				}
				victims := kills[i]
				t := time.AfterFunc(offsets[i], func() {
					for _, v := range victims {
						c.workers[v].Kill()
					}
				})
				timerMu.Lock()
				timers = append(timers, t)
				timerMu.Unlock()
			}
		}
	}

	d, err := dmr.NewDriver(c.m, cfg)
	if err != nil {
		return nil, fmt.Errorf("xval: dmr driver: %w", err)
	}
	if err := d.LoadInput(); err != nil {
		return nil, fmt.Errorf("xval: dmr load input: %w", err)
	}
	start := time.Now()
	if err := d.RunChain(); err != nil {
		return nil, fmt.Errorf("xval: dmr run %q: %w", sched.Label(), err)
	}
	out := &dmrOutcome{total: time.Since(start), episodes: d.Episodes()}
	for _, span := range d.RunLog {
		out.runDurations = append(out.runDurations, span.End.Sub(span.Start))
		out.runs = append(out.runs, startedRun{span.Job, span.Kind, span.Err})
	}
	digs, err := d.OutputDigests()
	if err != nil {
		return nil, fmt.Errorf("xval: dmr digests: %w", err)
	}
	out.digests = digs
	return out, nil
}
