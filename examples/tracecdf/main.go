// Tracecdf: regenerate Figure 2 — the CDF of newly-failed machines per day
// for the two Rice University clusters the paper analyzed, from synthetic
// traces matching the published summary statistics.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"rcmp/internal/failure"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	for _, cfg := range []failure.TraceConfig{failure.STICTrace(), failure.SUGARTrace()} {
		days, err := failure.Generate(cfg)
		if err != nil {
			return err
		}
		s := failure.Summarize(days)
		cdf := failure.CDF(days)
		fmt.Fprintf(w, "%s: %d nodes, %d days\n", cfg.Name, cfg.Nodes, cfg.Days)
		fmt.Fprintf(w, "  days with new failures: %.1f%% (paper: %s)\n",
			100*s.FailureDayFrac, paperFraction(cfg.Name))
		fmt.Fprintf(w, "  mean failures on a failure day: %.2f, worst day: %d nodes\n",
			s.MeanPerFailDay, s.MaxFailures)
		fmt.Fprintln(w, "  CDF of new failures per day:")
		for _, x := range []float64{0, 1, 2, 5, 10, 20, 40} {
			fmt.Fprintf(w, "    <= %3.0f failures: %6.2f%%\n", x, 100*cdf.At(x))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Reading: failures are an occasional event at moderate cluster sizes,")
	fmt.Fprintln(w, "not a continuous threat — the premise for making recomputation, not")
	fmt.Fprintln(w, "always-on replication, the first-order resilience strategy.")
	return nil
}

func paperFraction(name string) string {
	if name == "STIC" {
		return "17% of days"
	}
	return "12% of days"
}
