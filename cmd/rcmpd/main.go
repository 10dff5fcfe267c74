// Command rcmpd runs the distributed RCMP runtime (internal/dmr): a real
// master/worker MapReduce cluster over TCP with recomputation-based failure
// resilience.
//
// Subcommands:
//
//	rcmpd demo    — single-process demo cluster: starts a master and N
//	                workers on loopback, runs a multi-job chain, injects
//	                worker kills at configured points, recovers by cascading
//	                recomputation, and verifies the output digests against a
//	                failure-free reference run.
//	rcmpd compare — the same failure scenario under NO-SPLIT, SPLIT and
//	                SCATTER recomputation, with per-strategy work counters
//	                and digest verification.
//	rcmpd master  — standalone master: waits for N workers to register,
//	                runs the configured chain as the submission middleware,
//	                and prints the output digests.
//	rcmpd worker  — standalone worker: joins a master and serves tasks until
//	                killed (optionally dying on its own after -die-after, to
//	                exercise failure recovery across real processes).
//
// Example two-terminal session:
//
//	$ rcmpd master -listen 127.0.0.1:7070 -workers 3 -jobs 4 -split
//	$ for i in 0 1 2; do rcmpd worker -id $i -master 127.0.0.1:7070 & done
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"rcmp/internal/dmr"
	"rcmp/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main: it dispatches the subcommand,
// which writes its report to stdout, and returns the exit code — 0 on
// success or -h, 2 on a usage error, 1 when the subcommand fails.
func run(args []string, stdout, stderr io.Writer) int {
	var sub func(args []string, stdout, stderr io.Writer) error
	if len(args) > 0 {
		switch args[0] {
		case "demo":
			sub = runDemo
		case "compare":
			sub = runCompare
		case "master":
			sub = runMaster
		case "worker":
			sub = runWorker
		}
	}
	if sub == nil {
		fmt.Fprintln(stderr, `usage: rcmpd <demo|compare|master|worker> [flags]
run "rcmpd <subcommand> -h" for the flags of each subcommand`)
		return 2
	}
	err := sub(args[1:], stdout, stderr)
	var usage usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errBadFlag):
		return 2 // the flag set has printed the problem and the flags
	case errors.As(err, &usage):
		fmt.Fprintln(stderr, "rcmpd:", err)
		return 2
	default:
		fmt.Fprintln(stderr, "rcmpd:", err)
		return 1
	}
}

// usageError is a mistake in the command line rather than a failure of
// the run: run exits 2 on it.
type usageError struct{ error }

// errBadFlag is a flag the subcommand's flag set rejected and reported.
var errBadFlag = errors.New("bad flag")

// newFlags returns a subcommand's flag set, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses a subcommand's flags. A stray positional argument
// would end parsing and silently drop every flag after it, so it is a
// usage error too.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlag
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	return nil
}

// chainFlags registers the flags shared by demo and master.
func chainFlags(fs *flag.FlagSet, cfg *dmr.ChainConfig) {
	fs.IntVar(&cfg.Jobs, "jobs", 4, "chain length (the paper uses 7)")
	fs.IntVar(&cfg.NumReducers, "reducers", 8, "reducers per job")
	fs.IntVar(&cfg.RecordsPerPartition, "records-per-part", 200, "input records per partition")
	fs.IntVar(&cfg.InputRepl, "input-repl", 3, "replication of the original input")
	fs.IntVar(&cfg.OutputRepl, "output-repl", 1, "replication of job outputs (RCMP: 1)")
	fs.BoolVar(&cfg.Split, "split", false, "split recomputed reducers over surviving workers")
	fs.IntVar(&cfg.SplitRatio, "split-ratio", 0, "splits per recomputed reducer (0 = one per surviving worker)")
	fs.BoolVar(&cfg.ScatterOnly, "scatter", false, "scatter recomputed reducer output blocks instead of splitting (Section IV-B2)")
	fs.BoolVar(&cfg.NoMapOutputReuse, "no-reuse", false, "re-run every mapper of recomputed jobs (Section V-D knob)")
	fs.BoolVar(&cfg.Speculation, "speculation", false, "duplicate straggling mappers on another worker")
	fs.IntVar(&cfg.HybridEveryK, "hybrid-k", 0, "replicate every k-th job output (0 = pure recomputation)")
	fs.IntVar(&cfg.HybridRepl, "hybrid-repl", 2, "replication factor at hybrid checkpoints")
	fs.BoolVar(&cfg.ReclaimAtCheckpoints, "reclaim", false, "reclaim persisted outputs at hybrid checkpoints")
	fs.Int64Var(&cfg.Seed, "seed", 42, "input generation seed")
}

// parseKills parses "job=2,worker=1;job=4,worker=3".
func parseKills(s string) (map[int][]int, error) {
	kills := make(map[int][]int)
	if s == "" {
		return kills, nil
	}
	for _, item := range strings.Split(s, ";") {
		var job, worker = -1, -1
		for _, kv := range strings.Split(item, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("bad kill spec %q", item)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad kill spec %q: %v", item, err)
			}
			switch k {
			case "job":
				job = n
			case "worker":
				worker = n
			default:
				return nil, fmt.Errorf("bad kill key %q", k)
			}
		}
		if job < 1 || worker < 0 {
			return nil, fmt.Errorf("kill spec %q needs job>=1 and worker>=0", item)
		}
		kills[job] = append(kills[job], worker)
	}
	return kills, nil
}

func runDemo(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("demo", stderr)
	var cfg dmr.ChainConfig
	chainFlags(fs, &cfg)
	workers := fs.Int("workers", 5, "number of workers")
	slots := fs.Int("slots", 2, "mapper and reducer slots per worker")
	blockRecords := fs.Int("block-records", 50, "records per DFS block")
	killSpec := fs.String("kill", "job=2,worker=1", "worker kills, e.g. \"job=2,worker=1;job=4,worker=3\" (empty = failure-free)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	kills, err := parseKills(*killSpec)
	if err != nil {
		return usageError{err}
	}

	// Reference digests from a failure-free run of the identical chain.
	fmt.Fprintln(stdout, "== reference run (failure-free) ==")
	ref, _, err := demoRun(stdout, cfg, *workers, *slots, *blockRecords, nil)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "== run with failure injection ==")
	got, d, err := demoRun(stdout, cfg, *workers, *slots, *blockRecords, kills)
	if err != nil {
		return err
	}
	for p := range ref {
		if !got[p].Equal(ref[p]) {
			return fmt.Errorf("output partition %d differs from failure-free run: %v vs %v", p, got[p], ref[p])
		}
	}
	fmt.Fprintf(stdout, "output verified: %d partitions byte-equivalent to the failure-free run\n", len(ref))
	fmt.Fprintf(stdout, "started runs: %d (failure-free chain would be %d)\n", d.StartedRuns, cfg.Jobs)
	fmt.Fprintf(stdout, "recovery episodes: %d, recomputed mappers: %d, recomputed reducers: %d, remote reads: %d\n",
		d.RecoveryEpisodes, d.RecomputedMappers, d.RecomputedReducers, d.RemoteReads)
	return nil
}

// demoRun starts a loopback cluster, runs the chain with the given kill
// schedule, and returns the output digests; progress goes to out.
func demoRun(out io.Writer, cfg dmr.ChainConfig, workers, slots, blockRecords int, kills map[int][]int) ([]workloadDigest, *dmr.Driver, error) {
	m, err := dmr.StartMaster(dmr.MasterConfig{SlotsPerWorker: slots, Timing: dmr.TestTiming()}, blockRecords)
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	var ws []*dmr.Worker
	defer func() {
		for _, w := range ws {
			w.Kill()
		}
	}()
	for i := 0; i < workers; i++ {
		w, err := dmr.StartWorker(dmr.WorkerConfig{ID: i, MasterAddr: m.Addr(), Timing: dmr.TestTiming()})
		if err != nil {
			return nil, nil, err
		}
		ws = append(ws, w)
	}

	cfg.AfterJob = func(job int) {
		for _, victim := range kills[job] {
			if victim < len(ws) {
				fmt.Fprintf(out, "  -- killing worker %d after job %d --\n", victim, job)
				ws[victim].Kill()
				waitDead(m, victim)
			}
		}
	}
	d, err := dmr.NewDriver(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := d.LoadInput(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if err := d.RunChain(); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "  chain of %d jobs done in %v (%d runs started)\n", cfg.Jobs, time.Since(start).Round(time.Millisecond), d.StartedRuns)
	digs, err := d.OutputDigests()
	if err != nil {
		return nil, nil, err
	}
	return digs, d, nil
}

// runCompare runs the same failure scenario under the three recomputation
// strategies of Section IV-B (no-split, split, scatter-only) on the real
// runtime, verifies each output against a failure-free reference, and
// prints the work each strategy performed.
func runCompare(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("compare", stderr)
	var cfg dmr.ChainConfig
	chainFlags(fs, &cfg)
	workers := fs.Int("workers", 6, "number of workers")
	slots := fs.Int("slots", 2, "mapper and reducer slots per worker")
	blockRecords := fs.Int("block-records", 50, "records per DFS block")
	killSpec := fs.String("kill", "job=3,worker=1", "worker kills (same syntax as demo)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if cfg.Split || cfg.ScatterOnly {
		return usageError{errors.New("compare sets the strategy itself; drop -split/-scatter")}
	}
	kills, err := parseKills(*killSpec)
	if err != nil {
		return usageError{err}
	}

	ref, _, err := demoRun(stdout, cfg, *workers, *slots, *blockRecords, nil)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	type row struct {
		name string
		d    *dmr.Driver
		wall time.Duration
	}
	var rows []row
	for _, strat := range []struct {
		name   string
		mutate func(*dmr.ChainConfig)
	}{
		{"NO-SPLIT", func(*dmr.ChainConfig) {}},
		{"SPLIT", func(c *dmr.ChainConfig) { c.Split = true }},
		{"SCATTER", func(c *dmr.ChainConfig) { c.ScatterOnly = true }},
	} {
		c := cfg
		strat.mutate(&c)
		start := time.Now()
		got, d, err := demoRun(stdout, c, *workers, *slots, *blockRecords, kills)
		if err != nil {
			return fmt.Errorf("%s run: %w", strat.name, err)
		}
		for p := range ref {
			if !got[p].Equal(ref[p]) {
				return fmt.Errorf("%s: partition %d differs from reference", strat.name, p)
			}
		}
		rows = append(rows, row{strat.name, d, time.Since(start)})
	}

	fmt.Fprintf(stdout, "\n%-10s %8s %12s %12s %12s %10s  verified\n",
		"strategy", "runs", "recomp.maps", "recomp.reds", "remoteReads", "wall")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-10s %8d %12d %12d %12d %10v  yes\n",
			r.name, r.d.StartedRuns, r.d.RecomputedMappers, r.d.RecomputedReducers,
			r.d.RemoteReads, r.wall.Round(time.Millisecond))
	}
	fmt.Fprintln(stdout, "\nall three strategies produced output byte-equivalent to the failure-free run")
	return nil
}

func waitDead(m *dmr.Master, id int) {
	for i := 0; i < 1000; i++ {
		if m.FailedNodes()[id] {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func runMaster(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("master", stderr)
	var cfg dmr.ChainConfig
	chainFlags(fs, &cfg)
	listen := fs.String("listen", "127.0.0.1:7070", "control listen address")
	workers := fs.Int("workers", 3, "workers to wait for before submitting the chain")
	slots := fs.Int("slots", 2, "mapper and reducer slots per worker")
	blockRecords := fs.Int("block-records", 50, "records per DFS block")
	detect := fs.Duration("detect", 30*time.Second, "failure detection timeout (paper: 30s)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	timing := dmr.DefaultTiming()
	timing.DetectionTimeout = *detect
	if timing.HeartbeatInterval > *detect/4 {
		timing.HeartbeatInterval = *detect / 4
	}
	m, err := dmr.StartMaster(dmr.MasterConfig{ListenAddr: *listen, SlotsPerWorker: *slots, Timing: timing}, *blockRecords)
	if err != nil {
		return err
	}
	defer m.Close()
	fmt.Fprintf(stdout, "master listening on %s, waiting for %d workers...\n", m.Addr(), *workers)
	for len(m.AliveWorkers()) < *workers {
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Fprintf(stdout, "workers registered: %v\n", m.AliveWorkers())

	d, err := dmr.NewDriver(m, cfg)
	if err != nil {
		return err
	}
	if err := d.LoadInput(); err != nil {
		return err
	}
	start := time.Now()
	if err := d.RunChain(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chain of %d jobs done in %v; runs started: %d, recoveries: %d\n",
		cfg.Jobs, time.Since(start).Round(time.Millisecond), d.StartedRuns, d.RecoveryEpisodes)
	digs, err := d.OutputDigests()
	if err != nil {
		return err
	}
	for p, dg := range digs {
		fmt.Fprintf(stdout, "  out/p%d: %v\n", p, dg)
	}
	return nil
}

func runWorker(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("worker", stderr)
	id := fs.Int("id", 0, "worker node ID (dense, unique)")
	master := fs.String("master", "127.0.0.1:7070", "master control address")
	listen := fs.String("listen", "127.0.0.1:0", "data/task listen address")
	dieAfter := fs.Duration("die-after", 0, "kill self after this duration (0 = run until interrupted)")
	heartbeat := fs.Duration("heartbeat", 3*time.Second, "heartbeat interval (keep <= 1/4 of the master's -detect)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	timing := dmr.DefaultTiming()
	timing.HeartbeatInterval = *heartbeat
	w, err := dmr.StartWorker(dmr.WorkerConfig{ID: *id, MasterAddr: *master, ListenAddr: *listen, Timing: timing})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "worker %d serving on %s (master %s)\n", w.ID(), w.Addr(), *master)
	if *dieAfter > 0 {
		time.Sleep(*dieAfter)
		fmt.Fprintf(stdout, "worker %d dying now (-die-after %v)\n", w.ID(), *dieAfter)
		w.Kill()
		return nil
	}
	select {} // serve forever
}

// workloadDigest aliases the digest type for the demo's comparison loop.
type workloadDigest = workload.Digest
