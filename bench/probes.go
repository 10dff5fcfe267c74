package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"rcmp/bench/stats"
	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/des"
	"rcmp/internal/dfs"
	"rcmp/internal/dmr"
	"rcmp/internal/engine"
	"rcmp/internal/experiments"
	"rcmp/internal/flow"
	"rcmp/internal/mapreduce"
	"rcmp/internal/middleware"
	"rcmp/internal/runner"
	"rcmp/internal/server"
	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// The layer probes of a traced run. Each times calls into one package's
// public functions from outside and reports that layer's cost; the README
// says which end-to-end metric, on which workload, each is expected to move.
// The same probes run whatever the traced workload, so a per-layer metric
// means one thing everywhere.

// probe sizes a repetition count: n in a measured run, a token few in smoke.
type probe struct {
	o    options
	vals map[string]float64
}

func (p *probe) n(full int) int {
	if p.o.smoke {
		return max(full/200, 3)
	}
	return full
}

// per is the mean cost of one of n repetitions, in the given unit.
func per(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(n) / float64(unit.Nanoseconds())
}

// medianOf times f reps times and returns the median in the given unit.
func medianOf(reps int, unit time.Duration, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		f()
		xs[i] = per(time.Since(t), 1, unit)
	}
	return stats.Median(xs)
}

func runProbes(o options) (map[string]float64, error) {
	p := &probe{o: o, vals: map[string]float64{}}
	for _, f := range []func() error{
		p.des, p.flow, p.clusterDFS, p.mapreduce, p.core, p.analytic,
		p.figs, p.server, p.wire, p.dmr, p.dataPlane,
	} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return p.vals, nil
}

type nopTimer struct{}

func (nopTimer) Fire() {}

// des: schedule-and-fire cycles, and reschedules, over a 4096-event pending
// set (the queue depth of a paper-scale run).
func (p *probe) des() error {
	const pending = 4096
	sim := des.New()
	events := make([]*des.Event, pending)
	for i := range events {
		events[i] = sim.AfterTimer(des.Time(1e9+float64(i)), nopTimer{})
	}
	n := p.n(1_000_000)
	t := time.Now()
	for i := 0; i < n; i++ {
		sim.AfterTimer(1, nopTimer{})
		sim.Step()
	}
	p.vals["des.ns_per_event"] = per(time.Since(t), n, time.Nanosecond)
	t = time.Now()
	for i := 0; i < n; i++ {
		sim.Reschedule(events[i%pending], des.Time(2e9+float64(i)))
	}
	p.vals["des.ns_per_reschedule"] = per(time.Since(t), n, time.Nanosecond)
	return nil
}

type nopCompletion struct{}

func (nopCompletion) FlowDone(*flow.Flow) {}

// flow: a 64-node topology whose every flow crosses one shared core, so the
// network is a single component: the water-filler's worst case. Rebalance
// is a StartC/Abort pair under 256 standing flows; completion is 256 finite
// flows run to the end.
func (p *probe) flow() error {
	const nodes, standing = 64, 256
	for _, mode := range []string{"strict", "class"} {
		build := func() (*des.Simulator, *flow.Network, func(i int) []flow.Use) {
			sim := des.New()
			net := flow.NewNetwork(sim)
			if mode == "class" {
				net.EnableClassAccounting()
			}
			disks := make([]*flow.Resource, nodes)
			for i := range disks {
				disks[i] = &flow.Resource{Name: "disk", Capacity: 100 << 20, SeekPenalty: 0.35, PenaltyCap: 1.2}
			}
			shared := &flow.Resource{Name: "core", Capacity: nodes * 1250 * (1 << 20) / 4}
			return sim, net, func(i int) []flow.Use {
				return []flow.Use{{R: disks[i%nodes], Weight: 1}, {R: shared, Weight: 1}, {R: disks[(i+7)%nodes], Weight: 1}}
			}
		}
		_, net, uses := build()
		for i := 0; i < standing; i++ {
			net.StartC("standing", 1e15, uses(i), 0, nopCompletion{})
		}
		n := p.n(20_000)
		t := time.Now()
		for i := 0; i < n; i++ {
			net.Abort(net.StartC("probe", 1e15, uses(i)[:2], 0, nopCompletion{}))
		}
		p.vals["flow."+mode+".ns_per_rebalance"] = per(time.Since(t), 2*n, time.Nanosecond)

		rounds := p.n(400)
		var total time.Duration
		for r := 0; r < rounds; r++ {
			sim, net, uses := build()
			for i := 0; i < standing; i++ {
				net.StartC("finite", float64(1+i%17)*(8<<20), uses(i), 0, nopCompletion{})
			}
			t := time.Now()
			sim.Run()
			total += time.Since(t)
		}
		p.vals["flow."+mode+".ns_per_completion"] = per(total, rounds*standing, time.Nanosecond)
	}
	return nil
}

// clusterDFS: topology and namespace construction at 4096 nodes, the sizes
// the scale workloads build in set-up and recover on.
func (p *probe) clusterDFS() error {
	const nodes, files = 4096, 4
	ccfg := cluster.DCOConfig(nodes, 1, 1)
	p.vals["cluster.build_ms"] = medianOf(5, time.Millisecond, func() { cluster.New(des.New(), ccfg) })
	p.vals["mapreduce.context_build_ms"] = medianOf(5, time.Millisecond, func() { mapreduce.NewContext(ccfg) })

	fs := dfs.New(256 * cluster.MB)
	t := time.Now()
	for f := 0; f < files; f++ {
		name := fmt.Sprintf("out%d", f)
		if _, err := fs.Create(name, nodes); err != nil {
			return err
		}
		for i := 0; i < nodes; i++ {
			if _, err := fs.SetPartition(name, i, 128*cluster.MB, [][]int{{i}}); err != nil {
				return err
			}
		}
	}
	p.vals["dfs.ns_per_setpartition"] = per(time.Since(t), files*nodes, time.Nanosecond)
	t = time.Now()
	if lost := fs.FailNode(3); len(lost) != files {
		return fmt.Errorf("dfs probe: FailNode lost %d partitions, want %d", len(lost), files)
	}
	p.vals["dfs.failnode_ms"] = per(time.Since(t), 1, time.Millisecond)
	return nil
}

// mapreduce: host time per simulated event on the four paths a chain can
// take: exact shuffle tier (60 nodes), aggregated tier (128 nodes),
// fast-forward (4096, failure-free) and a failure at scale (4096).
func (p *probe) mapreduce() error {
	type chain struct {
		name string
		ccfg cluster.Config
		cfg  mapreduce.ChainConfig
	}
	dco := func(nodes int) chain {
		return chain{ccfg: cluster.DCOConfig(nodes, 1, 1), cfg: mapreduce.ChainConfig{
			Mode: mapreduce.ModeRCMP, NumJobs: 7, NumReducers: nodes,
			InputPerNode: 2 * cluster.GB, BlockSize: 256 * cluster.MB, Seed: p.o.seed,
			Split: true, Failures: []mapreduce.Injection{{AtRun: 2, After: 15, Node: 3}},
		}}
	}
	big := 4096
	if p.o.smoke {
		big = 256
	}
	exact, agg := dco(60), dco(128)
	exact.name, agg.name = "exact", "agg"
	ff, failscale := chain{name: "ff"}, chain{name: "failscale"}
	ff.ccfg, ff.cfg = scaleSetup(p.o.seed, big, false)
	failscale.ccfg, failscale.cfg = scaleSetup(p.o.seed, big, true)

	var events, flows uint64
	var runs int
	var mallocs, bytesAlloc uint64
	for _, c := range []chain{exact, agg, ff, failscale} {
		// One warm run fills the context pool; the timed run is what every
		// pass after the first costs.
		if _, err := mapreduce.RunChain(c.ccfg, c.cfg); err != nil {
			return fmt.Errorf("mapreduce probe %s: %w", c.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		res, err := mapreduce.RunChain(c.ccfg, c.cfg)
		d := time.Since(t)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("mapreduce probe %s: %w", c.name, err)
		}
		p.vals["mapreduce."+c.name+".ns_per_event"] = per(d, int(res.Events), time.Nanosecond)
		events += res.Events
		flows += res.Flows
		runs += res.StartedRuns
		if c.name == "ff" || c.name == "failscale" {
			mallocs += after.Mallocs - before.Mallocs
			bytesAlloc += after.TotalAlloc - before.TotalAlloc
		}
	}
	p.vals["mapreduce.events"] = float64(events)
	p.vals["mapreduce.flows"] = float64(flows)
	p.vals["mapreduce.started_runs"] = float64(runs)
	p.vals["mapreduce.allocs_per_run"] = float64(mallocs) / 2
	p.vals["mapreduce.alloc_kb_per_run"] = float64(bytesAlloc) / 2 / 1024
	return nil
}

// core: the three planner entry points on a 7-job x 256-node lineage after
// one node failure, built by running the functional engine.
func (p *probe) core() error {
	nodes := 256
	if p.o.smoke {
		nodes = 16
	}
	e, err := engine.New(engine.Config{Nodes: nodes, NumReducers: nodes, Jobs: 7,
		RecordsPerNode: 16, RecordsPerBlock: 8, Seed: p.o.seed})
	if err != nil {
		return err
	}
	if err := e.Run(); err != nil {
		return err
	}
	fs, ch := e.FS(), e.Chain()
	fs.FailNode(3)
	failed := map[int]bool{3: true}
	opts := core.Options{Split: true, AliveNodes: nodes - 1}
	g, err := middleware.NewGraph(middleware.Chain(7))
	if err != nil {
		return err
	}
	topo, err := core.NewTopology(g)
	if err != nil {
		return err
	}
	var plan *core.Plan
	reps := p.n(200)
	p.vals["core.graphplan_us"] = medianOf(reps, time.Microsecond, func() {
		plan, err = core.BuildGraphPlan(ch, topo, fs, 7, failed, opts)
	})
	if err != nil {
		return err
	}
	p.vals["core.buildplan_us"] = medianOf(reps, time.Microsecond, func() {
		plan, err = core.BuildPlan(ch, fs, 7, failed, opts)
	})
	if err != nil {
		return err
	}
	p.vals["core.checkplan_us"] = medianOf(reps, time.Microsecond, func() {
		err = core.CheckPlan(ch, fs, failed, plan, true)
	})
	if err != nil {
		return err
	}
	m, r := plan.TotalRecomputedTasks()
	p.vals["core.plan_tasks"] = float64(m + r)
	return nil
}

// analytic: one 131072-node weak-scaling what-if on the closed-form engine.
func (p *probe) analytic() error {
	sp, ok := experiments.Lookup("weak-scaling")
	if !ok {
		return fmt.Errorf("analytic probe: weak-scaling not registered")
	}
	cfg := experiments.Config{Scale: experiments.ScaleQuick, Seed: p.o.seed, Nodes: 131072, Engine: experiments.EngineAnalytic}
	var err error
	p.vals["analytic.whatif_us"] = medianOf(p.n(1000), time.Microsecond, func() { _, err = sp.Exec(cfg) })
	return err
}

// figs: one figs_paper pass through runner.Runner{Workers: 1} gives the
// per-spec spans and the runner's dispatch overhead; a second pass with
// Workers: nproc gives the parallel speed-up.
func (p *probe) figs() error {
	scale := experiments.ScalePaper
	if p.o.smoke {
		scale = experiments.ScaleQuick
	}
	jobs := runner.Grid{Specs: experiments.Registry(), Scales: []experiments.Scale{scale}, Seeds: []int64{p.o.seed}}.Jobs()
	serial := runner.Runner{Workers: 1}
	t := time.Now()
	results := serial.Run(jobs)
	wall1 := time.Since(t)
	var sum time.Duration
	rest := 0.0
	for i, r := range results {
		if r.Err != "" {
			return fmt.Errorf("figs probe: %s: %s", r.Name, r.ErrMessage())
		}
		sum += r.Elapsed
		ms := per(r.Elapsed, 1, time.Millisecond)
		if heavySpecs[jobs[i].Key] {
			p.vals["experiments.exec_ms."+jobs[i].Key] = ms
		} else {
			rest += ms
		}
	}
	p.vals["experiments.exec_ms.rest"] = rest
	p.vals["runner.dispatch_overhead_ms"] = per(wall1-sum, 1, time.Millisecond)

	parallel := runner.Runner{Workers: runtime.NumCPU()}
	t = time.Now()
	parallel.Run(jobs)
	p.vals["runner.parallel_speedup"] = wall1.Seconds() / time.Since(t).Seconds()

	var buf bytes.Buffer
	var err error
	p.vals["runner.encode_ms"] = medianOf(p.n(200), time.Millisecond, func() {
		buf.Reset()
		err = runner.WriteJSON(&buf, results, false)
	})
	if err != nil {
		return err
	}
	cfg := experiments.Config{Scale: experiments.ScaleQuick, Seed: p.o.seed}
	n := p.n(20_000)
	t = time.Now()
	for i := 0; i < n; i++ {
		experiments.ConfigDigest("8b", cfg)
	}
	p.vals["experiments.digest_us"] = per(time.Since(t), n, time.Microsecond)
	return nil
}

// server: the cached request through the handler alone and over the
// socket; the uncached request against a direct run of its jobs; computed
// /v1/plan answers; and the cache counters over exactly these requests.
func (p *probe) server() error {
	// One worker, so a miss runs its four jobs one after the other exactly
	// like the direct run it is compared with.
	s, err := startSweepServer(1)
	if err != nil {
		return err
	}
	defer s.close()
	base := p.o.seed*1_000_000 + 500_000
	post := func(seed int64) (time.Duration, error) {
		body, _ := sweepBody(seed)
		t := time.Now()
		status, raw, err := s.post("/v1/sweep", body, 0)
		d := time.Since(t)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("server probe: status %d: %.120s", status, raw)
		}
		return d, err
	}

	// Misses: fresh seeds, one request at a time, so latency minus the
	// direct simulation time is admission + queue + encode + write.
	misses := p.n(40)
	var missMS, simMS []float64
	for i := 0; i < misses; i++ {
		seed := base + int64(2*i+1) // odd: stream:false
		d, err := post(seed)
		if err != nil {
			return err
		}
		missMS = append(missMS, per(d, 1, time.Millisecond))
		t := time.Now()
		if _, err := sweepReference(seed); err != nil {
			return err
		}
		simMS = append(simMS, per(time.Since(t), 1, time.Millisecond))
	}
	p.vals["server.miss.simulate_ms"] = stats.Median(simMS)
	p.vals["server.miss.overhead_ms"] = stats.Median(missMS) - stats.Median(simMS)

	// Hits: the first miss seed again, over the socket and straight into
	// the handler.
	hits := p.n(2000)
	body, _ := sweepBody(base + 1)
	var sockUS, handlerUS []float64
	for i := 0; i < hits; i++ {
		d, err := post(base + 1)
		if err != nil {
			return err
		}
		sockUS = append(sockUS, per(d, 1, time.Microsecond))
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
		rw := httptest.NewRecorder()
		t := time.Now()
		s.srv.Handler().ServeHTTP(rw, req)
		handlerUS = append(handlerUS, per(time.Since(t), 1, time.Microsecond))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("server probe: handler status %d", rw.Code)
		}
	}
	p.vals["server.hit.handler_us"] = stats.Median(handlerUS)
	p.vals["server.hit.http_us"] = stats.Median(sockUS) - stats.Median(handlerUS)

	st, err := s.stats()
	if err != nil {
		return err
	}
	p.vals["server.hit_ratio"] = float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
	p.vals["server.executed_jobs"] = float64(st.ExecutedJobs)
	p.vals["server.retries_429"] = 0 // any 429 above was returned as an error

	// Distinct plan requests only: each is computed; a repeated one is the
	// cache-hit path the rows above already cover.
	var planUS []float64
	for i := 0; i < p.n(40); i++ {
		b, _ := json.Marshal(server.PlanRequest{Seed: p.o.seed, Nodes: 1024 + i, Tenants: 2})
		t := time.Now()
		status, raw, err := s.post("/v1/plan", b, 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("server probe: /v1/plan status %d: %.120s", status, raw)
		}
		if err != nil {
			return err
		}
		planUS = append(planUS, per(time.Since(t), 1, time.Microsecond))
	}
	p.vals["server.plan_p50_us"] = stats.Median(planUS)
	return nil
}

// echoMsg is the probe's wire payload.
type echoMsg struct{ B []byte }

func init() { wire.Register(echoMsg{}) }

func echoServer(chaos *wire.Chaos) (*wire.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if chaos != nil {
		ln = chaos.WrapListener(ln, "echo")
	}
	return wire.NewServer(ln, func(_ net.Addr, req any) (any, error) { return req, nil }), nil
}

// wire: RPC round-trip at two body sizes, N-way fan-in through one pool,
// the gob cost of a shuffle-sized envelope, and what the retry layer costs
// when nothing fails.
func (p *probe) wire() error {
	srv, err := echoServer(nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	const timeout = 10 * time.Second
	cl, err := wire.Dial(srv.Addr(), time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	rtt := func(call func(any, time.Duration) (any, error), size, n int) (float64, error) {
		msg := echoMsg{B: make([]byte, size)}
		xs := make([]float64, n)
		for i := range xs {
			t := time.Now()
			if _, err := call(msg, timeout); err != nil {
				return 0, err
			}
			xs[i] = per(time.Since(t), 1, time.Microsecond)
		}
		return stats.Median(xs), nil
	}
	if p.vals["wire.call_rtt_us"], err = rtt(cl.Call, 64, p.n(20_000)); err != nil {
		return err
	}
	if p.vals["wire.call_rtt_64k_us"], err = rtt(cl.Call, 64<<10, p.n(2000)); err != nil {
		return err
	}

	pool := wire.NewPool(time.Second)
	defer pool.Close()
	clients, calls := numClients(), p.n(20_000)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	t := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := echoMsg{B: make([]byte, 64)}
			for i := 0; i < calls/clients; i++ {
				if _, err := pool.Call(srv.Addr(), msg, timeout); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	p.vals["wire.pool_fanin_calls_per_s"] = float64(calls/clients*clients) / time.Since(t).Seconds()

	// One encoder and decoder over one stream, as a wire connection has.
	var stream bytes.Buffer
	enc, dec := gob.NewEncoder(&stream), gob.NewDecoder(&stream)
	env := wire.Envelope{ID: 1, Reply: true, Body: dmr.FetchMapOutResp{
		Records: workload.Generate(dmrShape(0, false).RecordsPerPartition/8, p.o.seed)}}
	p.vals["wire.gob_roundtrip_us"] = medianOf(p.n(400), time.Microsecond, func() {
		var back wire.Envelope
		if err = enc.Encode(&env); err == nil {
			err = dec.Decode(&back)
		}
	})
	if err != nil {
		return err
	}

	// The same pool call bare and through RetryPolicy + a Chaos transport
	// that injects nothing.
	chaos := &wire.Chaos{Seed: p.o.seed}
	hard, err := echoServer(chaos)
	if err != nil {
		return err
	}
	defer hard.Close()
	hardPool := wire.NewPoolOpts(time.Second, wire.PoolOptions{Chaos: chaos, Self: "probe", Retry: wire.RetryPolicy{Max: 3, Seed: p.o.seed}})
	defer hardPool.Close()
	n := p.n(5000)
	bare, err := rtt(func(m any, d time.Duration) (any, error) { return pool.Call(srv.Addr(), m, d) }, 64, n)
	if err != nil {
		return err
	}
	hardened, err := rtt(func(m any, d time.Duration) (any, error) { return hardPool.Call(hard.Addr(), m, d) }, 64, n)
	if err != nil {
		return err
	}
	p.vals["wire.retry_overhead_us"] = hardened - bare
	return nil
}

// dmr: a clean and a kill chain on fresh clusters, decomposed by the
// driver's public RunLog and counters.
func (p *probe) dmr() error {
	cfg := dmrShape(p.o.seed, p.o.smoke)
	passes := 3
	if p.o.smoke {
		passes = 1
	}
	type sample struct{ start, load, chain, detect, initial, recompute float64 }
	med := func(xs []sample, f func(sample) float64) float64 {
		v := make([]float64, len(xs))
		for i, x := range xs {
			v[i] = f(x)
		}
		return stats.Median(v)
	}
	var last *dmr.Driver
	run := func(kill bool) ([]sample, error) {
		var out []sample
		for i := 0; i < passes; i++ {
			pass, err := prepareDMRPass(nil, i, cfg, kill)
			if err != nil {
				return nil, err
			}
			err = pass.run()
			pass.close()
			if err != nil {
				return nil, err
			}
			s := sample{start: per(pass.startCluster, 1, time.Millisecond), load: per(pass.loadInput, 1, time.Millisecond),
				chain: per(pass.chain, 1, time.Millisecond), detect: per(pass.detect, 1, time.Millisecond)}
			for _, r := range pass.d.RunLog {
				ms := per(r.End.Sub(r.Start), 1, time.Millisecond)
				if r.Kind == "recompute" {
					s.recompute += ms
				} else {
					s.initial += ms
				}
			}
			out = append(out, s)
			last = pass.d
		}
		return out, nil
	}
	clean, err := run(false)
	if err != nil {
		return err
	}
	kill, err := run(true)
	if err != nil {
		return err
	}
	all := append(append([]sample(nil), clean...), kill...)
	p.vals["dmr.start_cluster_ms"] = med(all, func(s sample) float64 { return s.start })
	p.vals["dmr.load_input_ms"] = med(all, func(s sample) float64 { return s.load })
	p.vals["dmr.run_ms.initial"] = med(clean, func(s sample) float64 { return s.initial })
	p.vals["dmr.run_ms.recompute"] = med(kill, func(s sample) float64 { return s.recompute })
	p.vals["dmr.detect_ms"] = med(kill, func(s sample) float64 { return s.detect })
	cleanMS := med(clean, func(s sample) float64 { return s.chain })
	p.vals["dmr.recovery_overhead_ms"] = med(kill, func(s sample) float64 { return s.chain }) - cleanMS
	p.vals["dmr.records_per_s"] = float64(dmrWorkers*cfg.RecordsPerPartition) / (cleanMS / 1e3)
	// Block placement is timing-dependent, so these vary by a few tasks
	// between runs: context, not exact counts.
	p.vals["dmr.started_runs"] = float64(last.StartedRuns)
	p.vals["dmr.recomputed_mappers"] = float64(last.RecomputedMappers)
	p.vals["dmr.recomputed_reducers"] = float64(last.RecomputedReducers)
	p.vals["dmr.remote_reads"] = float64(last.RemoteReads)
	return nil
}

// dataPlane: the functional engine on the dmr chain shape, and the UDF
// loops: the floor under a dmr chain that wire and dmr coordination sit on.
func (p *probe) dataPlane() error {
	_, d, err := engineDigests(dmrShape(p.o.seed, p.o.smoke))
	if err != nil {
		return err
	}
	p.vals["engine.chain_ms"] = per(d, 1, time.Millisecond)

	recs := workload.Generate(p.n(20_000), p.o.seed)
	mapped := make([]workload.Record, 0, len(recs))
	t := time.Now()
	for _, r := range recs {
		if err := workload.Map(r, func(o workload.Record) { mapped = append(mapped, o) }); err != nil {
			return err
		}
	}
	p.vals["workload.map_ns_per_record"] = per(time.Since(t), len(recs), time.Nanosecond)
	t = time.Now()
	for _, r := range mapped {
		if err := workload.Reduce(r.Key, [][]byte{r.Value}, func(workload.Record) {}); err != nil {
			return err
		}
	}
	p.vals["workload.reduce_ns_per_record"] = per(time.Since(t), len(mapped), time.Nanosecond)
	return nil
}

// goMetrics are the runtime/metrics counters the go.* rows are deltas of.
type goMetrics struct{ gcCPU, totalCPU, allocBytes, cycles float64 }

func readGoMetrics() goMetrics {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return goMetrics{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64()), float64(s[3].Value.Uint64())}
}

func (a goMetrics) sub(b goMetrics) goMetrics {
	return goMetrics{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes, a.cycles - b.cycles}
}
