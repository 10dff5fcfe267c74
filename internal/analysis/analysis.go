// Package analysis implements the paper's numerical models: the OPTIMISTIC
// strategy (Section V-A) and the chain-length extrapolation of Figure 10.
//
// OPTIMISTIC runs with replication factor 1 and assumes failures never
// happen; on a failure it discards everything and restarts the whole chain
// from job 1. The paper does not run it: its totals are computed from the
// average job running times measured for RCMP without splitting, before
// the failure (all nodes) and after it (surviving nodes). The same averages
// drive the Figure 10 extrapolation to chains of 10-100 jobs.
package analysis

import "fmt"

// PerJob holds measured average per-job running times for one strategy.
type PerJob struct {
	// Full is the average job time with the full cluster.
	Full float64
	// Degraded is the average job time with the post-failure cluster.
	Degraded float64
}

// Validate reports measurement errors.
func (p PerJob) Validate() error {
	if p.Full <= 0 || p.Degraded <= 0 {
		return fmt.Errorf("analysis: non-positive per-job times %+v", p)
	}
	return nil
}

// OptimisticTotal models OPTIMISTIC under a single failure during job
// failAt: the jobs completed before the failure, the time wasted inside the
// failed job (reaction = injection offset + detection timeout), then the
// entire chain re-run on the degraded cluster.
func OptimisticTotal(jobs, failAt int, p PerJob, reaction float64) float64 {
	return float64(failAt-1)*p.Full + reaction + float64(jobs)*p.Degraded
}

// RCMPRecovery holds the measured cost of one RCMP recovery episode.
type RCMPRecovery struct {
	// Reaction is the wasted time inside the failed job (injection offset +
	// detection timeout; RCMP discards the job's partial results).
	Reaction float64
	// RecomputeTotal is the summed duration of the partial recomputation
	// runs.
	RecomputeTotal float64
	// RestartDegraded is the duration of the restarted job on the degraded
	// cluster.
	RestartDegraded float64
}

// RCMPTotalWithFailure models RCMP under a single failure during job failAt
// of a chain of the given length: full-speed jobs before the failure, the
// recovery episode, then the rest of the chain on the degraded cluster.
func RCMPTotalWithFailure(jobs, failAt int, p PerJob, rec RCMPRecovery) float64 {
	return float64(failAt-1)*p.Full +
		rec.Reaction + rec.RecomputeTotal + rec.RestartDegraded +
		float64(jobs-failAt)*p.Degraded
}

// HadoopTotalWithFailure models replicated Hadoop under a single failure
// during job failAt: replicated-speed jobs before, the failed job including
// its within-job recovery (measured), then the rest on the degraded cluster.
func HadoopTotalWithFailure(jobs, failAt int, p PerJob, failedJobTime float64) float64 {
	return float64(failAt-1)*p.Full + failedJobTime + float64(jobs-failAt)*p.Degraded
}

// SlowdownSeries computes, for each chain length, the slowdown of a
// strategy's total versus a baseline total (Figure 10 normalizes to RCMP
// with splitting). Both series must be evaluated at the same lengths.
func SlowdownSeries(lengths []int, totalFn, baselineFn func(jobs int) float64) []float64 {
	out := make([]float64, len(lengths))
	for i, L := range lengths {
		out[i] = totalFn(L) / baselineFn(L)
	}
	return out
}
