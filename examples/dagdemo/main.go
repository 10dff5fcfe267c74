// Dagdemo: recovery on a non-chain computation. The paper evaluates linear
// chains but defines its mechanisms for any DAG of jobs; this example runs
// a diamond-shaped computation on a small simulated cluster, kills a node
// while the final join runs, and prints the recovery plan the planner
// (core.BuildGraphPlan) builds, as the run's record of adopted plans holds
// it: only the jobs whose lost partitions the join needs recompute, and
// the surviving branch is skipped.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
	"rcmp/internal/middleware"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// ingest -> {enrich, filter} -> join, listed in submission order (the
	// middleware breaks ties by name). With HybridEveryK 2 the even
	// positions, enrich and join, write two replicas, so enrich's output
	// survives one loss.
	cfg := mapreduce.GraphConfig{
		ChainConfig: mapreduce.ChainConfig{
			Mode:         mapreduce.ModeRCMP,
			NumReducers:  4,
			InputPerNode: 128 * cluster.MB,
			BlockSize:    64 * cluster.MB,
			HybridEveryK: 2,
			HybridRepl:   2,
			// Node 1 dies 5 s into the fourth run, the join.
			Failures: []mapreduce.Injection{{AtRun: 4, After: 5, Node: 1}},
		},
		Jobs: []middleware.Job{
			{ID: "ingest", Inputs: []string{"raw"}, Output: "clean"},
			{ID: "enrich", Inputs: []string{"clean"}, Output: "enr"},
			{ID: "filter", Inputs: []string{"clean"}, Output: "flt"},
			{ID: "join", Inputs: []string{"flt", "enr"}, Output: "result"},
		},
	}
	name := func(job int) string { return string(cfg.Jobs[job-1].ID) }

	ccfg := cluster.DCOConfig(4, 1, 1)
	ccfg.FailureDetectionTimeout = 3
	res, err := mapreduce.NewContext(ccfg).RunGraph(cfg)
	if err != nil {
		return err
	}
	for _, ep := range res.Episodes {
		fmt.Fprintf(w, "node lost while %s runs; recovery plan:\n", name(ep.Frontier))
		for _, s := range ep.Steps {
			fmt.Fprintf(w, "  recompute %-6s partitions %v of %s, re-running mappers of input partitions %v\n",
				name(s.Job), s.Partitions, cfg.Jobs[s.Job-1].Output, s.RerunParts)
		}
		fmt.Fprintf(w, "  then restart %s\n", name(ep.RestartJob))
	}
	fmt.Fprintln(w, "runs:")
	for _, r := range res.Runs {
		state := ""
		if r.Cancelled {
			state = " (cancelled)"
		}
		fmt.Fprintf(w, "  %-6s %s%s\n", name(r.Job), r.Kind, state)
	}
	fmt.Fprintf(w, "done in %.1f simulated seconds\n", float64(res.Total))
	return nil
}
