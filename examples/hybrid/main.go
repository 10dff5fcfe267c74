// Hybrid: combine recomputation with periodic replication (Section IV-C).
// Replicating every k-th job's output bounds how far the recomputation
// cascade can reach backwards; this example sweeps k under a late failure
// and prints the trade-off against pure recomputation and pure replication.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
	"rcmp/internal/metrics"
	"rcmp/internal/textplot"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	ccfg := cluster.STICConfig(1, 1)
	base := mapreduce.ChainConfig{
		Mode:         mapreduce.ModeRCMP,
		NumJobs:      7,
		NumReducers:  10,
		InputPerNode: 4 * cluster.GB,
		Split:        true,
		SplitRatio:   8,
		Failures:     []mapreduce.Injection{{AtRun: 7, After: 15, Node: 3}},
	}

	type variant struct {
		label string
		cfg   mapreduce.ChainConfig
	}
	variants := []variant{{"pure RCMP", base}}
	for _, k := range []int{5, 3, 2} {
		cfg := base
		cfg.HybridEveryK, cfg.HybridRepl = k, 2
		variants = append(variants, variant{fmt.Sprintf("hybrid every-%d", k), cfg})
	}
	pureRepl := base
	pureRepl.Mode, pureRepl.OutputRepl = mapreduce.ModeHadoop, 2
	pureRepl.Split, pureRepl.SplitRatio = false, 0
	variants = append(variants, variant{"pure REPL-2", pureRepl})

	var labels []string
	var totals []float64
	for _, v := range variants {
		res, err := mapreduce.RunChain(ccfg, v.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", v.label, err)
		}
		recomputes := len(res.Recorder.RunsOfKind(metrics.RunRecompute))
		fmt.Fprintf(w, "%-24s total %7.0fs  recompute runs: %d\n", v.label, float64(res.Total), recomputes)
		labels = append(labels, v.label)
		totals = append(totals, float64(res.Total))
	}

	fmt.Fprintln(w)
	fmt.Fprint(w, textplot.Bars("late single failure, 7-job chain (simulated seconds)",
		labels, totals, totals[0]/40))
	fmt.Fprintln(w, "\nReplicating more often shortens the cascade after a failure but taxes")
	fmt.Fprintln(w, "every failure-free job; the sweet spot depends on the failure rate.")
	return nil
}
