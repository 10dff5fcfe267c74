package main

import "os"

// Example pins the Figure 2 summaries of the two synthetic failure traces.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// STIC: 218 nodes, 1100 days
	//   days with new failures: 16.6% (paper: 17% of days)
	//   mean failures on a failure day: 2.50, worst day: 33 nodes
	//   CDF of new failures per day:
	//     <=   0 failures:  83.36%
	//     <=   1 failures:  92.55%
	//     <=   2 failures:  96.64%
	//     <=   5 failures:  99.18%
	//     <=  10 failures:  99.36%
	//     <=  20 failures:  99.64%
	//     <=  40 failures: 100.00%
	//
	// SUG@R: 121 nodes, 1350 days
	//   days with new failures: 12.5% (paper: 12% of days)
	//   mean failures on a failure day: 1.95, worst day: 26 nodes
	//   CDF of new failures per day:
	//     <=   0 failures:  87.48%
	//     <=   1 failures:  95.41%
	//     <=   2 failures:  98.52%
	//     <=   5 failures:  99.70%
	//     <=  10 failures:  99.70%
	//     <=  20 failures:  99.78%
	//     <=  40 failures: 100.00%
	//
	// Reading: failures are an occasional event at moderate cluster sizes,
	// not a continuous threat — the premise for making recomputation, not
	// always-on replication, the first-order resilience strategy.
}
