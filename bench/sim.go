package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"time"

	"rcmp/internal/cluster"
	"rcmp/internal/experiments"
	"rcmp/internal/mapreduce"
)

// The simulator workloads: figs_paper, scale_ff and scale_fail. All three
// are serial, so nothing contends and a faster layer saves at most its
// self-time share of the pass.

//go:embed ref/*.json
var refFS embed.FS

// loadRef reads one committed seed-0 reference; a missing file is a nil map.
func loadRef[V any](name string) map[string]V {
	b, err := refFS.ReadFile("ref/" + name)
	if err != nil {
		return nil
	}
	var m map[string]V
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return m
}

// heavySpecs are the registry keys that make up ~85 % of a paper-scale
// pass; the traced run reports each as experiments.exec_ms.<key>.
var heavySpecs = map[string]bool{"8a": true, "8b": true, "8c": true, "11": true, "multi-tenant": true}

// resultDigest fingerprints everything a figure reports: its name, its text
// and its values in key order.
func resultDigest(r *experiments.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", r.Name, r.Text)
	for _, k := range slices.Sorted(maps.Keys(r.Values)) {
		fmt.Fprintf(h, "%s=%v\n", k, r.Values[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// figsPaper runs every registered experiment at paper scale, one after the
// other: what `rcmpsim -fig all` does.
type figsPaper struct {
	specs []experiments.Spec
	cfg   experiments.Config
	want  map[string]string // spec key -> digest every pass must reproduce
	pass  int
}

func (w *figsPaper) config(e *env) experiments.Config {
	c := experiments.Config{Scale: experiments.ScalePaper, Seed: e.seed}
	if e.smoke {
		c.Scale = experiments.ScaleQuick
	}
	return c
}

func (w *figsPaper) setup(e *env) error {
	w.specs = experiments.Registry()
	w.cfg = w.config(e)
	w.want = map[string]string{}
	if e.seed == 0 && !e.smoke {
		w.want = loadRef[string]("figs_paper.seed0.json")
		if w.want == nil {
			return fmt.Errorf("figs_paper: reference bench/ref/figs_paper.seed0.json missing (run -write-ref)")
		}
	}
	// Warm the per-configuration context pools with the light specs: they
	// share the heavy ones' STIC and DCO cluster shapes, at a sixth of the
	// cost of a full pass.
	for _, sp := range w.specs {
		if heavySpecs[sp.Key] {
			continue
		}
		cfg := w.cfg
		cfg.Seed += sp.Seed
		if _, err := sp.Exec(cfg); err != nil {
			return fmt.Errorf("figs_paper: warm %s: %w", sp.Key, err)
		}
	}
	return nil
}

func (w *figsPaper) run(e *env) {
	for done := 0; e.more(done, 2); done++ {
		pass := e.rec.begin("pass", -1, w.pass, 0)
		for i, sp := range w.specs {
			cfg := w.cfg
			cfg.Seed += sp.Seed
			e.settle()
			id := e.rec.begin("Spec.Exec/"+sp.Key, pass, w.pass*len(w.specs)+i, 0)
			t := time.Now()
			res, err := sp.Exec(cfg)
			d := time.Since(t)
			e.rec.end(id)
			e.op(d, w.verify(sp.Key, res, err))
		}
		e.rec.end(pass)
		w.pass++
	}
}

// verify holds every pass to the committed digest (seed 0) or to the first
// pass (any other seed): a simulator speed-up must leave every simulated
// statistic identical.
func (w *figsPaper) verify(key string, res *experiments.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("figs_paper: %s: %v", key, err)
	}
	got := resultDigest(res)
	want, ok := w.want[key]
	if !ok {
		w.want[key] = got
		return ""
	}
	if got != want {
		return fmt.Sprintf("figs_paper: %s: digest %.12s, want %.12s", key, got, want)
	}
	return ""
}

func (w *figsPaper) check(*env) {}
func (w *figsPaper) close()     {}

// chainStats are the simulated statistics of one chain that must not move.
type chainStats struct {
	Total       float64 `json:"total"`
	Events      uint64  `json:"events"`
	Flows       uint64  `json:"flows"`
	StartedRuns int     `json:"started_runs"`
}

func statsOf(r *mapreduce.Result) chainStats {
	return chainStats{Total: float64(r.Total), Events: r.Events, Flows: r.Flows, StartedRuns: r.StartedRuns}
}

// An odd number of sizes keeps the median operation inside one size group
// instead of between two.
var (
	scaleFFSizes   = []int{1024, 2048, 4096, 8192, 16384}
	scaleFailSizes = []int{1024, 2048, 4096}
	scaleSmoke     = []int{64, 128, 256}
)

// scaleSetup is the weak-scaling chain at one cluster size, failure-free or
// with the failure that parks fast-forward.
func scaleSetup(seed int64, nodes int, fail bool) (cluster.Config, mapreduce.ChainConfig) {
	ccfg, cfg := experiments.WeakScalingSetup(experiments.Config{Seed: seed}, nodes)
	if fail {
		cfg.Split = true
		cfg.Failures = []mapreduce.Injection{{AtRun: 2, After: 1, Node: 3}}
	}
	return ccfg, cfg
}

func scaleRefKey(nodes int, fail bool) string {
	if fail {
		return fmt.Sprintf("fail/%d", nodes)
	}
	return fmt.Sprintf("ff/%d", nodes)
}

// scaleChain runs one weak-scaling mapreduce.RunChain per operation.
type scaleChain struct {
	fail  bool
	sizes []int
	seed  int64
	want  map[string]chainStats
	pass  int
}

func (w *scaleChain) setup(e *env) error {
	w.seed = e.seed
	w.sizes = scaleFFSizes
	if w.fail {
		w.sizes = scaleFailSizes
	}
	w.want = map[string]chainStats{}
	switch {
	case e.smoke:
		w.sizes = scaleSmoke
	case e.seed == 0:
		w.want = loadRef[chainStats]("scale.seed0.json")
		if w.want == nil {
			return fmt.Errorf("scale: reference bench/ref/scale.seed0.json missing (run -write-ref)")
		}
	}
	// The warm pass builds the pooled simulation context of each size with
	// a failure-free chain, which costs a twentieth of a failing one, and
	// then warms the recovery path once at the smallest size.
	warm := func(n int, fail bool) error {
		ccfg, cfg := scaleSetup(w.seed, n, fail)
		if _, err := mapreduce.RunChain(ccfg, cfg); err != nil {
			return fmt.Errorf("scale: warm @%d: %w", n, err)
		}
		return nil
	}
	for _, n := range w.sizes {
		if err := warm(n, false); err != nil {
			return err
		}
	}
	if w.fail {
		return warm(w.sizes[0], true)
	}
	return nil
}

func (w *scaleChain) run(e *env) {
	for done := 0; e.more(done, 2); done++ {
		pass := e.rec.begin("pass", -1, w.pass, 0)
		for i, n := range w.sizes {
			ccfg, cfg := scaleSetup(w.seed, n, w.fail)
			e.settle()
			id := e.rec.begin(fmt.Sprintf("mapreduce.RunChain/%d", n), pass, w.pass*len(w.sizes)+i, 0)
			t := time.Now()
			res, err := mapreduce.RunChain(ccfg, cfg)
			d := time.Since(t)
			e.rec.end(id)
			e.op(d, w.verify(n, res, err))
		}
		e.rec.end(pass)
		w.pass++
	}
}

func (w *scaleChain) verify(nodes int, res *mapreduce.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("scale: @%d: %v", nodes, err)
	}
	key, got := scaleRefKey(nodes, w.fail), statsOf(res)
	want, ok := w.want[key]
	if !ok {
		w.want[key] = got
		return ""
	}
	if got != want {
		return fmt.Sprintf("scale: %s: %+v, want %+v", key, got, want)
	}
	return ""
}

func (w *scaleChain) check(*env) {}
func (w *scaleChain) close()     {}

// writeRefs regenerates the committed seed-0 references under dir. Each is
// generated twice and written only if both generations agree.
func writeRefs(dir string) error {
	gen := func() (map[string]string, map[string]chainStats, error) {
		figs := map[string]string{}
		for _, sp := range experiments.Registry() {
			res, err := sp.Exec(experiments.Config{Scale: experiments.ScalePaper, Seed: sp.Seed})
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", sp.Key, err)
			}
			figs[sp.Key] = resultDigest(res)
		}
		scale := map[string]chainStats{}
		for _, fail := range []bool{false, true} {
			sizes := scaleFFSizes
			if fail {
				sizes = scaleFailSizes
			}
			for _, n := range sizes {
				ccfg, cfg := scaleSetup(0, n, fail)
				res, err := mapreduce.RunChain(ccfg, cfg)
				if err != nil {
					return nil, nil, fmt.Errorf("scale @%d: %w", n, err)
				}
				scale[scaleRefKey(n, fail)] = statsOf(res)
			}
		}
		return figs, scale, nil
	}
	encode := func(v any) []byte {
		b, _ := json.MarshalIndent(v, "", "  ")
		return append(b, '\n')
	}
	figs1, scale1, err := gen()
	if err != nil {
		return err
	}
	figs2, scale2, err := gen()
	if err != nil {
		return err
	}
	for name, pair := range map[string][2][]byte{
		"figs_paper.seed0.json": {encode(figs1), encode(figs2)},
		"scale.seed0.json":      {encode(scale1), encode(scale2)},
	} {
		if string(pair[0]) != string(pair[1]) {
			return fmt.Errorf("write-ref: two generations of %s differ; the program is not deterministic, refusing to write", name)
		}
		if err := writeFile(dir, name, pair[0]); err != nil {
			return err
		}
		fmt.Printf("wrote %s/%s\n", dir, name)
	}
	return nil
}
