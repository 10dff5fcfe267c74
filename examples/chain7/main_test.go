package main

import "os"

// Example pins the chain7 table through the simulator's public front: a
// failure 15 s into job 7 makes RCMP, split or not, start 14 runs, of which
// 6 recompute jobs 1-6, while Hadoop recovers inside job 7.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// RCMP (no failure)                    total    1559s  runs started: 7  recompute runs: 0
	// RCMP SPLIT-8 (failure at job 7)      total    1872s  runs started: 14  recompute runs: 6
	// RCMP NO-SPLIT (failure at job 7)     total    2728s  runs started: 14  recompute runs: 6
	// HADOOP REPL-2 (failure at job 7)     total    2239s  runs started: 7  recompute runs: 0
	// HADOOP REPL-3 (no failure)           total    2845s  runs started: 7  recompute runs: 0
	//
	// == 7-job chain on STIC (simulated seconds) ==
	// RCMP (no failure)                   1559.0  ########################################
	// RCMP SPLIT-8 (failure at job 7)     1871.6  ################################################
	// RCMP NO-SPLIT (failure at job 7)    2727.7  #####################################################################
	// HADOOP REPL-2 (failure at job 7)    2238.8  #########################################################
	// HADOOP REPL-3 (no failure)          2845.2  ########################################################################
}
