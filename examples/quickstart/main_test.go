package main

import "os"

// Example pins the quickstart's output: losing node 2 before job 4 costs
// one recovery episode that re-runs 31 mappers and regenerates the lost
// output partition of each of the three completed jobs, and the recovered
// output equals the failure-free run.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// failure-free chain complete: 6 output partitions
	// recovered after failure: 1 recovery episode(s), 31 mappers and 3 reducers recomputed
	// output verified: identical to the failure-free run, partition by partition
}
