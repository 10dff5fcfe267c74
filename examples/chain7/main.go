// Chain7: the paper's 7-job, I/O-intensive chain on the simulated STIC
// cluster, comparing failure-resilience strategies with and without a late
// single failure — the workload behind Figures 8a and 8c.
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
	base := mapreduce.ChainConfig{
		Mode:         mapreduce.ModeRCMP,
		NumJobs:      7,
		NumReducers:  10,
		InputPerNode: 4 * cluster.GB, // 40 GB jobs on 10 nodes
	}
	ccfg := cluster.STICConfig(1, 1)

	type variant struct {
		name string
		cfg  mapreduce.ChainConfig
	}
	lateFailure := []mapreduce.Injection{{AtRun: 7, After: 15, Node: 3}}
	variants := []variant{
		{"RCMP (no failure)", base},
		{"RCMP SPLIT-8 (failure at job 7)", with(base, func(c *mapreduce.ChainConfig) {
			c.Split = true
			c.SplitRatio = 8
			c.Failures = lateFailure
		})},
		{"RCMP NO-SPLIT (failure at job 7)", with(base, func(c *mapreduce.ChainConfig) {
			c.Failures = lateFailure
		})},
		{"HADOOP REPL-2 (failure at job 7)", with(base, func(c *mapreduce.ChainConfig) {
			c.Mode = mapreduce.ModeHadoop
			c.OutputRepl = 2
			c.Failures = lateFailure
		})},
		{"HADOOP REPL-3 (no failure)", with(base, func(c *mapreduce.ChainConfig) {
			c.Mode = mapreduce.ModeHadoop
			c.OutputRepl = 3
		})},
	}

	var labels []string
	var totals []float64
	for _, v := range variants {
		res, err := mapreduce.RunChain(ccfg, v.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		labels = append(labels, v.name)
		totals = append(totals, float64(res.Total))
		fmt.Fprintf(w, "%-36s total %7.0fs  runs started: %d  recompute runs: %d\n",
			v.name, float64(res.Total), res.StartedRuns,
			len(res.Recorder.RunsOfKind(metrics.RunRecompute)))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, textplot.Bars("7-job chain on STIC (simulated seconds)", labels, totals, totals[0]/40))
	return nil
}

func with(c mapreduce.ChainConfig, f func(*mapreduce.ChainConfig)) mapreduce.ChainConfig {
	f(&c)
	return c
}
