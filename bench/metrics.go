package main

// metricDef names one metric. The tables below are the single source the
// printed output, `compare` and the root BENCHMARK.json are derived from
// (`-print-benchmark-json`; metrics_test.go pins the committed file to it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may get
	// worse by before a change counts as a regression.
	Bound float64
	// Exact marks per-layer counts that must repeat bit-for-bit for one
	// seed; `compare` checks them with ==.
	Exact bool
}

// endToEnd is what a user of the system sees, on every workload. Two of the
// issue's eight are carried differently: fail_share is the result line's
// failed/attempted pair (it is 0 on a healthy run, and the contract wants
// metrics that are never 0), and sim_events_per_s is ops_per_s times a
// constant on the two workloads it applies to, so it is the per-layer
// mapreduce.*.ns_per_event rows instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer is measured by the probes of a traced run (probes.go); the same
// probes run whatever the workload, so a row reads the same on all seven.
var perLayer = []metricDef{
	{Name: "des.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "des.ns_per_reschedule", Unit: "ns", Better: "lower"},
	{Name: "flow.strict.ns_per_rebalance", Unit: "ns", Better: "lower"},
	{Name: "flow.strict.ns_per_completion", Unit: "ns", Better: "lower"},
	{Name: "flow.class.ns_per_rebalance", Unit: "ns", Better: "lower"},
	{Name: "flow.class.ns_per_completion", Unit: "ns", Better: "lower"},
	{Name: "cluster.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dfs.failnode_ms", Unit: "ms", Better: "lower"},
	{Name: "dfs.ns_per_setpartition", Unit: "ns", Better: "lower"},
	{Name: "mapreduce.context_build_ms", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.exact.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "mapreduce.agg.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "mapreduce.ff.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "mapreduce.failscale.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "mapreduce.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "mapreduce.flows", Unit: "count", Better: "lower", Exact: true},
	{Name: "mapreduce.started_runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "mapreduce.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "mapreduce.alloc_kb_per_run", Unit: "KiB", Better: "lower"},
	{Name: "core.graphplan_us", Unit: "us", Better: "lower"},
	{Name: "core.buildplan_us", Unit: "us", Better: "lower"},
	{Name: "core.checkplan_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "analytic.whatif_us", Unit: "us", Better: "lower"},
	{Name: "experiments.exec_ms.8a", Unit: "ms", Better: "lower"},
	{Name: "experiments.exec_ms.8b", Unit: "ms", Better: "lower"},
	{Name: "experiments.exec_ms.8c", Unit: "ms", Better: "lower"},
	{Name: "experiments.exec_ms.11", Unit: "ms", Better: "lower"},
	{Name: "experiments.exec_ms.multi-tenant", Unit: "ms", Better: "lower"},
	{Name: "experiments.exec_ms.rest", Unit: "ms", Better: "lower"},
	{Name: "experiments.digest_us", Unit: "us", Better: "lower"},
	{Name: "runner.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.dispatch_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "server.hit.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.hit.http_us", Unit: "us", Better: "lower"},
	{Name: "server.miss.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "server.miss.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "server.executed_jobs", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.retries_429", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.plan_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.call_rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.call_rtt_64k_us", Unit: "us", Better: "lower"},
	{Name: "wire.pool_fanin_calls_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.gob_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "wire.retry_overhead_us", Unit: "us", Better: "lower"},
	{Name: "dmr.start_cluster_ms", Unit: "ms", Better: "lower"},
	{Name: "dmr.load_input_ms", Unit: "ms", Better: "lower"},
	{Name: "dmr.run_ms.initial", Unit: "ms", Better: "lower"},
	{Name: "dmr.run_ms.recompute", Unit: "ms", Better: "lower"},
	{Name: "dmr.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "dmr.recovery_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "dmr.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dmr.started_runs", Unit: "count", Better: "lower"},
	{Name: "dmr.recomputed_mappers", Unit: "count", Better: "lower"},
	{Name: "dmr.recomputed_reducers", Unit: "count", Better: "lower"},
	{Name: "dmr.remote_reads", Unit: "count", Better: "lower"},
	{Name: "engine.chain_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.map_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "workload.reduce_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.heap_alloc_mb_per_op", Unit: "MiB", Better: "lower"},
	{Name: "go.num_gc_per_op", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "higher"},
}

// runSeconds is how long one run measures; BENCHMARK.json carries it to the
// driver, which passes it back as --seconds.
const runSeconds = 10

// metricValue is one measured number on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmarkJSON is the root BENCHMARK.json, derived from the tables.
func benchmarkJSON() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	var es []e2e
	for _, m := range endToEnd {
		es = append(es, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}
