package main

import "os"

// Example pins how a replicated checkpoint bounds the cascade after a
// failure in job 7: checkpointing every 5th job leaves one recompute run
// (job 6), every 3rd job leaves none (job 6's output is replicated).
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// pure RCMP                total    1872s  recompute runs: 6
	// hybrid every-5           total    1852s  recompute runs: 1
	// hybrid every-3           total    1918s  recompute runs: 0
	// hybrid every-2           total    2028s  recompute runs: 0
	// pure REPL-2              total    2239s  recompute runs: 0
	//
	// == late single failure, 7-job chain (simulated seconds) ==
	// pure RCMP         1871.6  ########################################
	// hybrid every-5    1852.0  #######################################
	// hybrid every-3    1918.0  ########################################
	// hybrid every-2    2027.8  ###########################################
	// pure REPL-2       2238.8  ###############################################
	//
	// Replicating more often shortens the cascade after a failure but taxes
	// every failure-free job; the sweet spot depends on the failure rate.
}
