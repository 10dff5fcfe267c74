// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V), one benchmark per artifact, plus micro-benchmarks of the
// substrates. Each figure benchmark logs the reproduced rows/series on its
// first iteration so `go test -bench . -v` doubles as the results report.
//
// Paper-scale experiments simulate minutes-to-hours of cluster time per
// iteration; expect seconds of wall time each.
package rcmp_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/dmr"
	"rcmp/internal/engine"
	"rcmp/internal/experiments"
	"rcmp/internal/flow"
	"rcmp/internal/mapreduce"
	"rcmp/internal/runner"
	"rcmp/internal/workload"
)

func logOnce(b *testing.B, i int, text string) {
	if i == 0 {
		b.Log("\n" + text)
	}
}

// runFigBenchmark drives one registered experiment function at the
// benchmark scale, failing on config errors (benchmark configs are always
// valid) and logging the reproduced figure on the first iteration. The
// config lookup (an env read) is hoisted out of the timed loop so the
// numbers measure simulation, not setup.
func runFigBenchmark(b *testing.B, f func(experiments.Config) (*experiments.Result, error)) {
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, res.Text)
	}
}

// benchCfg selects the benchmark sizing: paper scale by default, or the
// smoke tier (experiments.ScaleSmoke) when RCMP_BENCH_SCALE=smoke or
// =quick — what `make bench-smoke` sets for a fast 1x sanity pass.
func benchCfg() experiments.Config {
	switch os.Getenv("RCMP_BENCH_SCALE") {
	case "smoke", "quick":
		return experiments.Config{Scale: experiments.ScaleSmoke}
	default:
		return experiments.Config{Scale: experiments.ScalePaper}
	}
}

// ---- Experiment-runner benchmarks ----

// BenchmarkAllSerial regenerates every registered artifact one-by-one, the
// pre-runner execution path and the baseline for BenchmarkAllParallel.
// Registry construction is hoisted: the loop times simulation only. Each
// figure runs on a Worker of width 1, so its runs too go one at a time
// and the profile stays comparable with earlier ones.
func BenchmarkAllSerial(b *testing.B) {
	specs := experiments.Registry()
	scale := benchCfg().Scale
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			cfg := experiments.Config{Scale: scale, Seed: sp.Seed}
			res, err := sp.Run(cfg.WithWorker(experiments.NewWorker(1)))
			if err != nil {
				b.Fatalf("%s: %v", sp.Name, err)
			}
			if res == nil {
				b.Fatal("nil experiment result")
			}
		}
	}
}

// BenchmarkAllParallel runs the same artifact set through the worker-pool
// runner at GOMAXPROCS workers, jobs dispatched cost-descending (LPT). On
// a multi-core machine this demonstrates the wall-clock win of fanning
// independent simulations out; the output is byte-identical to the serial
// path for the same seed.
func BenchmarkAllParallel(b *testing.B) {
	pool := runner.Runner{Workers: runtime.GOMAXPROCS(0)}
	jobs := runner.Grid{
		Specs:  experiments.Registry(),
		Scales: []experiments.Scale{benchCfg().Scale},
	}.Jobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range pool.Run(jobs) {
			if res.Err != "" {
				b.Fatalf("%s: %s", res.Name, res.Err)
			}
		}
	}
}

// ---- Figure benchmarks (one per paper artifact) ----

func BenchmarkFig2FailureTraceCDF(b *testing.B) { runFigBenchmark(b, experiments.Fig2) }

func BenchmarkFig8aNoFailure(b *testing.B) { runFigBenchmark(b, experiments.Fig8a) }

func BenchmarkFig8bSingleFailureEarly(b *testing.B) { runFigBenchmark(b, experiments.Fig8b) }

func BenchmarkFig8cSingleFailureLate(b *testing.B) { runFigBenchmark(b, experiments.Fig8c) }

func BenchmarkFig9DoubleFailures(b *testing.B) { runFigBenchmark(b, experiments.Fig9) }

func BenchmarkFig10ChainLength(b *testing.B) { runFigBenchmark(b, experiments.Fig10) }

func BenchmarkFig11SpeedupVsNodes(b *testing.B) { runFigBenchmark(b, experiments.Fig11) }

func BenchmarkFig12MapperCDF(b *testing.B) { runFigBenchmark(b, experiments.Fig12) }

func BenchmarkFig13ReducerWaves(b *testing.B) { runFigBenchmark(b, experiments.Fig13) }

func BenchmarkFig14MapperWaves(b *testing.B) { runFigBenchmark(b, experiments.Fig14) }

func BenchmarkHybridEvery5(b *testing.B) { runFigBenchmark(b, experiments.Hybrid) }

func BenchmarkDoubleFailureNested(b *testing.B) { runFigBenchmark(b, experiments.DoubleFailure) }

func BenchmarkTraceReplay(b *testing.B) { runFigBenchmark(b, experiments.TraceReplay) }

// ---- Ablations (DESIGN.md Section 5) ----

func BenchmarkAblationScatterVsSplit(b *testing.B) {
	runFigBenchmark(b, experiments.AblationScatterVsSplit)
}

func BenchmarkAblationSplitRatio(b *testing.B) { runFigBenchmark(b, experiments.AblationSplitRatio) }

func BenchmarkAblationMapReuse(b *testing.B) { runFigBenchmark(b, experiments.AblationMapReuse) }

func BenchmarkAblationDetectionTimeout(b *testing.B) {
	runFigBenchmark(b, experiments.AblationDetectionTimeout)
}

func BenchmarkAblationIORatio(b *testing.B) { runFigBenchmark(b, experiments.AblationIORatio) }

func BenchmarkAblationReclamation(b *testing.B) { runFigBenchmark(b, experiments.AblationReclamation) }

func BenchmarkAblationSpeculation(b *testing.B) { runFigBenchmark(b, experiments.AblationSpeculation) }

func BenchmarkAblationLocality(b *testing.B) { runFigBenchmark(b, experiments.AblationLocality) }

// BenchmarkCostModels prints the Section III-B provisioning and
// replication-guesswork tables.
func BenchmarkCostModels(b *testing.B) { runFigBenchmark(b, experiments.CostModels) }

// ---- Scaling benchmarks ----

// BenchmarkClusterScaling runs the weak-scaling workload (fixed per-node
// work, aggregated shuffle tier — the exact configuration the registered
// weak-scaling experiment pins) at growing cluster sizes, each size on a
// warm Context of its own, and reports ns per simulated event, the
// size-comparable cost metric docs/perf.md tracks: the target is ≤1.5x
// growth from 64 to 4096 nodes. The smoke tier stops at 256 nodes to keep
// verify fast. bench/'s scale_ff workload measures the same chains
// end to end, and `make profile-scale` profiles the 4096 row.
func BenchmarkClusterScaling(b *testing.B) {
	benchClusterScaling(b, []int{64, 256, 1024, 4096, 8192}, false)
}

// BenchmarkClusterScalingFail is the failing tail of the same sweep: the
// weak-scaling chain with reducer splitting on and node 3 lost one second
// into run 2 — the chain bench/'s scale_fail workload runs — so the
// post-failure shuffle accounting (docs/perf.md) has a root-level
// ns/event number and `make profile-scale-fail` something to profile.
func BenchmarkClusterScalingFail(b *testing.B) {
	benchClusterScaling(b, []int{1024, 4096}, true)
}

func benchClusterScaling(b *testing.B, sizes []int, fail bool) {
	cfg := benchCfg()
	if cfg.Scale == experiments.ScaleSmoke && os.Getenv("RCMP_BENCH_SCALE") != "" {
		sizes = []int{64, 256}
	}
	for _, nodes := range sizes {
		b.Run(fmt.Sprintf("%d", nodes), func(b *testing.B) {
			ccfg, chain := experiments.WeakScalingSetup(cfg, nodes)
			if fail {
				chain.Split = true
				chain.Failures = []mapreduce.Injection{{AtRun: 2, After: 1, Node: 3}}
			}
			ctx := warmContext(b, ccfg, chain)
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ctx.RunChain(chain)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			if events > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			}
		})
	}
}

// BenchmarkAnalyticWhatIf measures the analytic twin's headline ability:
// one weak-scaling what-if answer at 131072 nodes — 8x beyond the DES
// ceiling — per iteration, reported as ns/answer. The acceptance bar is
// <1 ms per config point (docs/perf.md records the measured value against
// the DES's ns/run at its own ceiling); bench/ reports the same answer as
// analytic.whatif_us.
func BenchmarkAnalyticWhatIf(b *testing.B) {
	cfg := experiments.Config{Scale: experiments.ScaleQuick, Nodes: 131072, Engine: experiments.EngineAnalytic}
	sp, ok := experiments.Lookup("weak-scaling")
	if !ok {
		b.Fatal("weak-scaling not registered")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sp.Exec(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.Values["sim-seconds @ 131072"]; !ok {
			b.Fatal("missing what-if answer")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/answer")
}

// ---- Substrate micro-benchmarks ----

// BenchmarkFlowRebalance measures the water-filler under a shuffle-like
// load: 300 flows over 180 resources.
func BenchmarkFlowRebalance(b *testing.B) {
	sim := des.New()
	net := flow.NewNetwork(sim)
	const nodes = 60
	disks := make([]*flow.Resource, nodes)
	for i := range disks {
		disks[i] = &flow.Resource{Name: "d", Capacity: 100, SeekPenalty: 0.35}
	}
	core := &flow.Resource{Name: "core", Capacity: 5000}
	var flows []*flow.Flow
	for i := 0; i < 300; i++ {
		uses := []flow.Use{{R: disks[i%nodes], Weight: 1}, {R: core, Weight: 1}, {R: disks[(i+7)%nodes], Weight: 1}}
		flows = append(flows, net.Start("f", 1e15, uses, 0, nil))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Adding and aborting a flow forces two full rebalances.
		f := net.Start("probe", 1e15, []flow.Use{{R: disks[i%nodes], Weight: 1}}, 0, nil)
		net.Abort(f)
	}
	b.StopTimer()
	for _, f := range flows {
		net.Abort(f)
	}
}

// BenchmarkPlannerBuildPlan measures recovery planning on a 60-node,
// 7-job lineage.
func BenchmarkPlannerBuildPlan(b *testing.B) {
	e, err := engine.New(engine.Config{
		Nodes: 8, NumReducers: 8, Jobs: 7, RecordsPerNode: 64, RecordsPerBlock: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	fs := e.FS()
	fs.FailNode(3)
	failed := map[int]bool{3: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPlan(e.Chain(), fs, 7, failed, core.Options{Split: true, AliveNodes: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitioner measures the shared key-routing hot path.
func BenchmarkPartitioner(b *testing.B) {
	key := workload.KeyBytes(0xdeadbeefcafe)
	b.SetBytes(int64(len(key)))
	for i := 0; i < b.N; i++ {
		h := core.HashKey(key)
		_ = core.ReducerOf(h, 60)
		_ = core.SplitOf(h, 59)
	}
}

// BenchmarkFunctionalChain measures the functional engine end to end:
// a 4-job chain with a failure, recovery and verification-grade UDFs.
func BenchmarkFunctionalChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := engine.New(engine.Config{
			Nodes: 6, NumReducers: 6, Jobs: 4, RecordsPerNode: 300,
			Split: true, Failures: []engine.Failure{{Before: 4, Node: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedChainSTIC measures one paper-scale 7-job simulator run
// on a warm Context.
func BenchmarkSimulatedChainSTIC(b *testing.B) {
	chain := mapreduce.ChainConfig{
		Mode: mapreduce.ModeRCMP, NumJobs: 7, NumReducers: 10,
		InputPerNode: 4 * cluster.GB,
	}
	ctx := warmContext(b, cluster.STICConfig(1, 1), chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.RunChain(chain); err != nil {
			b.Fatal(err)
		}
	}
}

// warmContext builds the Context a benchmark loops on and runs the chain
// on it twice, so the timed iterations measure a warm chain — topology
// built, free lists filled, what every sweep worker's reused Context runs —
// and allocs/op repeats exactly. (The second chain on a Context still
// fills free lists; TestWeakScalingAllocsDeterministic warms the same way.)
func warmContext(b *testing.B, ccfg cluster.Config, chain mapreduce.ChainConfig) *mapreduce.Context {
	b.Helper()
	ctx := mapreduce.NewContext(ccfg)
	for range 2 {
		if _, err := ctx.RunChain(chain); err != nil {
			b.Fatal(err)
		}
	}
	return ctx
}

// startDMR brings up a master and four workers on loopback TCP; the
// returned function tears them down.
func startDMR(b *testing.B, slots, blockRecords int) (*dmr.Master, []*dmr.Worker, func()) {
	m, err := dmr.StartMaster(dmr.MasterConfig{SlotsPerWorker: slots, Timing: dmr.TestTiming()}, blockRecords)
	if err != nil {
		b.Fatal(err)
	}
	var ws []*dmr.Worker
	for w := 0; w < 4; w++ {
		wk, err := dmr.StartWorker(dmr.WorkerConfig{ID: w, MasterAddr: m.Addr(), Timing: dmr.TestTiming()})
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, wk)
	}
	return m, ws, func() {
		for _, wk := range ws {
			wk.Kill()
		}
		m.Close()
	}
}

// BenchmarkDistributedChain measures the distributed runtime end to end on
// loopback TCP: a 4-worker cluster, a 3-job chain, one worker killed after
// job 2, heartbeat detection, cascading recomputation with splitting, and
// output digest collection.
func BenchmarkDistributedChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, ws, stop := startDMR(b, 2, 40)
		d, err := dmr.NewDriver(m, dmr.ChainConfig{
			Jobs: 3, NumReducers: 6, RecordsPerPartition: 80, Seed: 1, Split: true,
			AfterJob: func(job int) {
				if job == 2 {
					ws[1].Kill()
					for !m.FailedNodes()[1] {
						time.Sleep(time.Millisecond)
					}
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.LoadInput(); err != nil {
			b.Fatal(err)
		}
		if err := d.RunChain(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.OutputDigests(); err != nil {
			b.Fatal(err)
		}
		stop()
	}
}

// BenchmarkDMRChain is bench/'s dmr_clean workload as a Go benchmark, for
// profiling (`make profile-dmr`): a failure-free 5-job chain of 4 x 6000
// records over 250-record blocks, 8 reducers, on a fresh 4-worker, 1-slot
// cluster per iteration. Like dmr_clean it times RunChain
// and OutputDigests, not cluster start or LoadInput. shuffle-rpcs/op is
// read off the lineage, not counted on the wire: a reducer sends one fetch
// to every other worker that holds map outputs of its job (the contract
// internal/dmr's shuffle tests pin on the request stream), so it is the sum
// of that over all reducers of all jobs.
func BenchmarkDMRChain(b *testing.B) {
	cfg := dmr.ChainConfig{Jobs: 5, NumReducers: 8, RecordsPerPartition: 6000, Split: true}
	if os.Getenv("RCMP_BENCH_SCALE") != "" {
		cfg.RecordsPerPartition = 300
	}
	b.ReportAllocs()
	var rpcs int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _, stop := startDMR(b, 1, 250)
		d, err := dmr.NewDriver(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.LoadInput(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := d.RunChain(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.OutputDigests(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for j := 1; j <= d.Chain().Len(); j++ {
			job := d.Chain().Job(j)
			holders := map[int]bool{}
			for _, mp := range job.Mappers {
				holders[mp.Node] = true
			}
			for _, red := range job.Reducers {
				for _, node := range red.Nodes {
					rpcs += len(holders)
					if holders[node] {
						rpcs--
					}
				}
			}
		}
		stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(rpcs)/float64(b.N), "shuffle-rpcs/op")
}

// plainShuffleResp is the pre-RecordBatch shape of a shuffle reply: records
// as a reflected gob slice.
type plainShuffleResp struct{ Records []workload.Record }

func init() { gob.Register(plainShuffleResp{}) }

// BenchmarkRecordBatchCodec measures what one shuffle reply of the
// BenchmarkDMRChain shape (750 records: one reducer's share of one worker's
// map outputs) costs to cross a warm gob stream the way wire carries it —
// as an interface-typed body, decoded into a fresh envelope — packed as
// the RecordBatch frame the runtime sends, and as the reflected
// []workload.Record it used to send.
func BenchmarkRecordBatchCodec(b *testing.B) {
	type envelope struct{ Body any }
	rows := workload.Generate(750, 1)
	for _, c := range []struct {
		name string
		body any
	}{
		{"packed", dmr.FetchMapOutResp{Records: rows, Counts: []int{len(rows)}}},
		{"gob", plainShuffleResp{Records: rows}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var stream bytes.Buffer
			enc, dec := gob.NewEncoder(&stream), gob.NewDecoder(&stream)
			msg := envelope{Body: c.body}
			b.SetBytes(int64(len(rows) * (8 + workload.ValueSize)))
			for i := 0; i < b.N; i++ {
				var back envelope
				if err := enc.Encode(&msg); err != nil {
					b.Fatal(err)
				}
				if err := dec.Decode(&back); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/record")
		})
	}
}

// BenchmarkMapUDF measures the per-record mapper work (MD5 + byte-sum +
// re-key), the paper's per-record correctness computation.
func BenchmarkMapUDF(b *testing.B) {
	recs := workload.Generate(1024, 1)
	b.SetBytes(int64(workload.ValueSize))
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if err := workload.Map(r, func(workload.Record) {}); err != nil {
			b.Fatal(err)
		}
	}
}
