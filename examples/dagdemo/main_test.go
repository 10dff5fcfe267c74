package main

import "os"

// Example pins the demo's output: the plan recomputes the lost partition
// of ingest and filter, and the enrich branch, whose output survived,
// does not re-run.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// node lost while join runs; recovery plan:
	//   recompute ingest partitions [1] of clean, re-running mappers of input partitions [0 3]
	//   recompute filter partitions [1] of flt, re-running mappers of input partitions [1]
	//   then restart join
	// runs:
	//   ingest initial
	//   enrich initial
	//   filter initial
	//   join   initial (cancelled)
	//   ingest recompute
	//   filter recompute
	//   join   restart
	// done in 59.3 simulated seconds
}
