// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package analysis

// NoFailureTotal is the chain total without failures.
func NoFailureTotal(jobs int, p PerJob) float64 {
	return float64(jobs) * p.Full
}

// WaveSpeedup is the Section IV-B first-order model of recomputation
// speed-up from wave reduction: a job whose W waves of tasks shrink to
// ceil(W*lost/(alive)) waves during recomputation. It backs the sanity
// checks on Figures 13 and 14.
func WaveSpeedup(wavesInitial, slotsPerNode, nodesAlive, tasksRecomputed int) float64 {
	if wavesInitial <= 0 || slotsPerNode <= 0 || nodesAlive <= 0 {
		return 0
	}
	slots := slotsPerNode * nodesAlive
	wavesRecompute := (tasksRecomputed + slots - 1) / slots
	if wavesRecompute < 1 {
		wavesRecompute = 1
	}
	return float64(wavesInitial) / float64(wavesRecompute)
}
