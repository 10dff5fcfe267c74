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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rcmp/internal/engine"
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

func main() {
	nodes := flag.Int("nodes", 6, "cluster nodes")
	reducers := flag.Int("reducers", 0, "reducers per job (default = nodes)")
	jobs := flag.Int("jobs", 5, "chain length")
	records := flag.Int("records", 600, "records per node of job-1 input")
	seed := flag.Int64("seed", 1, "input generation seed")
	split := flag.Bool("split", false, "split recomputed reducers")
	ratio := flag.Int("splitratio", 0, "splits per recomputed reducer (0 = surviving nodes)")
	hybridK := flag.Int("hybrid", 0, "replicate every k-th job output (0 = off)")
	var fails failList
	flag.Var(&fails, "fail", "failure as JOB:NODE (repeatable)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rcmpfunc: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
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

	ref, err := engine.New(base)
	if err != nil {
		log.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		log.Fatal(err)
	}
	want, err := ref.OutputDigests()
	if err != nil {
		log.Fatal(err)
	}

	cfg := base
	cfg.Failures = fails
	e, err := engine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.Run(); err != nil {
		log.Fatalf("chain failed: %v", err)
	}
	got, err := e.OutputDigests()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("chain: %d jobs x %d reducers on %d nodes, %d records/node\n",
		*jobs, *reducers, *nodes, *records)
	fmt.Printf("failures injected: %d; recovery episodes: %d\n", len(fails), e.RecoveryEpisodes)
	fmt.Printf("recomputed: %d mappers, %d reducer runs\n", e.RecomputedMappers, e.RecomputedReducers)
	for p := range want {
		if got[p] != want[p] {
			fmt.Printf("FAIL: partition %d differs from failure-free run\n", p)
			os.Exit(1)
		}
	}
	total := 0
	for _, d := range got {
		total += d.Count
	}
	fmt.Printf("VERIFIED: %d partitions, %d records, identical to the failure-free run\n",
		len(got), total)
}
