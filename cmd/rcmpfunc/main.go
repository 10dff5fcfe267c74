// Command rcmpfunc drives the functional (data-plane) engine from the
// command line: it runs a chain of real map/reduce jobs over generated
// key-value records, injects the requested node failures, recovers with
// RCMP, and verifies the output against a failure-free reference run.
//
// Usage:
//
//	rcmpfunc -nodes 8 -jobs 5 -records 1000 -fail 4:2 -fail 5:6 -split
//
// Each -fail J:N kills node N immediately before job J starts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rcmp/internal/engine"
	"rcmp/internal/workload"
)

type failList []engine.Failure

func (f *failList) String() string {
	var parts []string
	for _, x := range *f {
		parts = append(parts, fmt.Sprintf("%d:%d", x.Before, x.Node))
	}
	return strings.Join(parts, ",")
}

func (f *failList) Set(s string) error {
	var job, node int
	if _, err := fmt.Sscanf(s, "%d:%d", &job, &node); err != nil {
		return fmt.Errorf("want JOB:NODE, got %q", s)
	}
	*f = append(*f, engine.Failure{Before: job, Node: node})
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main. It returns the exit code: 0 when
// the recovered output is verified (or for -h), 1 when a chain fails or
// its output differs from the reference, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcmpfunc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 6, "cluster nodes")
	reducers := fs.Int("reducers", 0, "reducers per job (default = nodes)")
	jobs := fs.Int("jobs", 5, "chain length")
	records := fs.Int("records", 600, "records per node of job-1 input")
	seed := fs.Int64("seed", 1, "input generation seed")
	split := fs.Bool("split", false, "split recomputed reducers")
	ratio := fs.Int("splitratio", 0, "splits per recomputed reducer (0 = surviving nodes)")
	hybridK := fs.Int("hybrid", 0, "replicate every k-th job output (0 = off)")
	var fails failList
	fs.Var(&fails, "fail", "failure as JOB:NODE (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has printed the problem and the flags
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rcmpfunc: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *reducers == 0 {
		*reducers = *nodes
	}
	base := engine.Config{
		Nodes:          *nodes,
		NumReducers:    *reducers,
		Jobs:           *jobs,
		RecordsPerNode: *records,
		Seed:           *seed,
		Split:          *split,
		SplitRatio:     *ratio,
		HybridEveryK:   *hybridK,
	}
	_, want, err := runChain(base)
	if err != nil {
		fmt.Fprintln(stderr, "rcmpfunc: reference chain:", err)
		return 1
	}
	cfg := base
	cfg.Failures = fails
	e, got, err := runChain(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "rcmpfunc: chain failed:", err)
		return 1
	}

	fmt.Fprintf(stdout, "chain: %d jobs x %d reducers on %d nodes, %d records/node\n",
		*jobs, *reducers, *nodes, *records)
	fmt.Fprintf(stdout, "failures injected: %d; recovery episodes: %d\n", len(fails), e.RecoveryEpisodes)
	fmt.Fprintf(stdout, "recomputed: %d mappers, %d reducer runs\n", e.RecomputedMappers, e.RecomputedReducers)
	for p := range want {
		if got[p] != want[p] {
			fmt.Fprintf(stdout, "FAIL: partition %d differs from failure-free run\n", p)
			return 1
		}
	}
	total := 0
	for _, d := range got {
		total += d.Count
	}
	fmt.Fprintf(stdout, "VERIFIED: %d partitions, %d records, identical to the failure-free run\n",
		len(got), total)
	return 0
}

// runChain runs one chain on a fresh engine and returns its output digests.
func runChain(cfg engine.Config) (*engine.Engine, []workload.Digest, error) {
	e, err := engine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := e.Run(); err != nil {
		return nil, nil, err
	}
	d, err := e.OutputDigests()
	return e, d, err
}
