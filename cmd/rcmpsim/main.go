// Command rcmpsim runs the RCMP reproduction experiments and prints the
// rows/series of each table and figure in the paper's evaluation.
//
// Experiments come from the registry in internal/experiments and execute
// on the parallel deterministic runner in internal/runner: -parallel picks
// the worker count, and for a given -seed the output (text or -json) is
// byte-identical whatever the parallelism.
//
// Usage:
//
//	rcmpsim -list
//	rcmpsim -fig 8a                      # one experiment at paper scale
//	rcmpsim -fig all -quick              # everything, small scale
//	rcmpsim -fig all -parallel 8 -json   # everything, 8 workers, JSON
//	rcmpsim -run 'Fig8|Hybrid' -seeds 0,1,2
//	rcmpsim -fig double-failure -schedule '3@15,4@5x2'   # explicit pulses
//	rcmpsim -fig trace-replay -seeds 0,1                 # trace-driven days
//	rcmpsim -fig 12 -schedule stic:1     # schedule sampled from the STIC trace
//	rcmpsim -fig weak-scaling -quick -engine analytic -nodes 131072
//	rcmpsim -fig 8b -quick -seed-set 5 -json   # 5-seed dispersion, mean/CI95
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main: it parses args, runs the selected
// experiments and writes the report to stdout, and returns the exit code —
// 0 on success, 1 when some job failed (or the report could not be
// written), 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("rcmpsim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	fig := flags.String("fig", "", "figure key to run (see -list), or 'all'")
	runPat := flags.String("run", "", "regexp selecting experiments by name or key (e.g. 'Fig8|Hybrid')")
	seeds := flags.String("seeds", "", "comma-separated seed sweep, overrides -seed (e.g. '0,1,2')")
	for _, d := range experiments.Dims() {
		switch d.Kind {
		case experiments.KindBool:
			flags.Bool(d.Flag, false, d.Usage)
		case experiments.KindInt:
			flags.Int64(d.Flag, 0, d.Usage)
		default:
			flags.String(d.Flag, "", d.Usage)
		}
	}
	parallel := flags.Int("parallel", runtime.GOMAXPROCS(0), "worker count for the experiment runner")
	jsonOut := flags.Bool("json", false, "emit machine-readable JSON instead of text figures")
	timing := flags.Bool("timing", false, "include per-run wall-clock timings in -json output (non-deterministic)")
	list := flags.Bool("list", false, "list available experiments")
	cpuProfile := flags.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
	memProfile := flags.String("memprofile", "", "write an allocation profile after the experiment run to this file (go tool pprof)")
	seedSet := flags.Int("seed-set", 0, "expand every seed into N consecutive seeds and add mean/CI95 aggregates to -json output (0 or 1 = off)")
	if err := flags.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "rcmpsim: %v\n", err)
		return 2
	}
	// A positional argument ends flag parsing: every flag after it would
	// be silently ignored.
	if flags.NArg() > 0 {
		return usage(fmt.Errorf("unexpected argument %q", flags.Arg(0)))
	}

	if *list || (*fig == "" && *runPat == "") {
		fmt.Fprintln(stdout, "available experiments (-fig KEY or -run REGEXP):")
		for _, sp := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-21s %s\n", sp.Key, sp.Desc)
		}
		if !*list {
			return 2
		}
		return 0
	}

	specs, err := selectSpecs(*fig, *runPat)
	if err != nil {
		return usage(err)
	}

	// Every dimension flag set off its default becomes a one-value axis; a
	// bool flag stands for its row's On value. An out-of-range value is a
	// per-job error (exit 1), exactly as the sweep server reports it.
	axes := experiments.Axes{}
	var parseErr error
	for _, d := range experiments.Dims() {
		if d.Name == "seed" && *seeds != "" {
			for _, part := range strings.Split(*seeds, ",") {
				c, err := d.Parse(strings.TrimSpace(part))
				if err != nil {
					return usage(fmt.Errorf("bad -seeds entry %q: %v", part, err))
				}
				axes[d.Name] = append(axes[d.Name], c)
			}
			continue
		}
		v := flags.Lookup(d.Flag).Value.String()
		if d.Kind == experiments.KindBool {
			if v != "true" {
				continue
			}
			v = d.On
		}
		if v == "" {
			continue
		}
		c, err := d.Parse(v)
		if err != nil && parseErr == nil {
			parseErr = err
		}
		axes[d.Name] = []experiments.Config{c}
	}
	if fa := axes["failure-at"]; len(fa) > 0 && fa[0].FailureAt > 0 && len(axes["schedule"]) > 0 {
		return usage(errors.New("-failure-at and -schedule are mutually exclusive"))
	}
	if parseErr != nil {
		return usage(parseErr)
	}
	grid := runner.Grid{Specs: specs, Axes: axes, SeedSet: *seedSet}
	if err := grid.Validate(); err != nil {
		return usage(err)
	}
	jobs := grid.Jobs()

	// Profiling covers exactly the simulation work (the pool run), not
	// argument parsing or report encoding, so paper-scale runs can be
	// profiled without the test harness. Both profile files open before
	// the run: a bad path must fail in milliseconds, not after minutes of
	// paper-scale simulation.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return usage(fmt.Errorf("-cpuprofile: %v", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return usage(fmt.Errorf("-cpuprofile: %v", err))
		}
	}
	var memOut *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return usage(fmt.Errorf("-memprofile: %v", err))
		}
		defer f.Close()
		memOut = f
	}

	pool := runner.Runner{Workers: *parallel}
	results := pool.Run(jobs)

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if memOut != nil {
		runtime.GC() // flush accounting so alloc_space is accurate
		if err := pprof.WriteHeapProfile(memOut); err != nil {
			return usage(fmt.Errorf("-memprofile: %v", err))
		}
	}

	if *jsonOut {
		if err := runner.WriteJSON(stdout, results, *timing); err != nil {
			fmt.Fprintf(stderr, "rcmpsim: %v\n", err)
			return 1
		}
	} else {
		for _, res := range results {
			if res.Err != "" {
				continue
			}
			fmt.Fprintln(stdout, res.Res.Text)
		}
	}
	code := 0
	for _, res := range results {
		if res.Err != "" {
			fmt.Fprintf(stderr, "rcmpsim: %s: %s\n", res.Name, res.Err)
			code = 1
		}
	}
	return code
}

// selectSpecs filters the registry by the -fig key and/or -run regexp.
func selectSpecs(fig, pattern string) ([]experiments.Spec, error) {
	specs := experiments.Registry()
	if fig != "" && strings.ToLower(fig) != "all" {
		key := strings.ToLower(strings.TrimPrefix(fig, "fig"))
		sp, ok := experiments.Lookup(key)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q (try -list)", fig)
		}
		specs = []experiments.Spec{sp}
	}
	if pattern != "" {
		re, err := regexp.Compile(pattern)
		if err != nil {
			return nil, fmt.Errorf("bad -run pattern: %v", err)
		}
		var kept []experiments.Spec
		for _, sp := range specs {
			if re.MatchString(sp.Name) || re.MatchString(sp.Key) {
				kept = append(kept, sp)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("-run %q matches no experiments (try -list)", pattern)
		}
		specs = kept
	}
	return specs, nil
}
