package xval

import (
	"fmt"
	"slices"

	"rcmp/internal/core"
	"rcmp/internal/metrics"
)

// compareEpisodes checks two engines' records of adopted plans for exact
// decision equality and names the first divergence.
func compareEpisodes(sim, dmr []core.Episode) (bool, string) {
	if len(sim) != len(dmr) {
		return false, fmt.Sprintf("episode count: sim %d, dmr %d", len(sim), len(dmr))
	}
	for i := range sim {
		if msg := compareEpisode(sim[i], dmr[i]); msg != "" {
			return false, fmt.Sprintf("episode %d: %s", i, msg)
		}
	}
	return true, ""
}

func compareEpisode(a, b core.Episode) string {
	switch {
	case a.Frontier != b.Frontier:
		return fmt.Sprintf("frontier: sim %d, dmr %d", a.Frontier, b.Frontier)
	case a.RestartJob != b.RestartJob:
		return fmt.Sprintf("restart job: sim %d, dmr %d", a.RestartJob, b.RestartJob)
	case a.Invalidated != b.Invalidated:
		return fmt.Sprintf("invalidated count: sim %d, dmr %d", a.Invalidated, b.Invalidated)
	case len(a.Steps) != len(b.Steps):
		return fmt.Sprintf("cascade size: sim %d steps, dmr %d steps", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		switch {
		case sa.Job != sb.Job:
			return fmt.Sprintf("step %d job: sim %d, dmr %d", i, sa.Job, sb.Job)
		case !slices.Equal(sa.Partitions, sb.Partitions):
			return fmt.Sprintf("step %d (job %d) regenerated partitions: sim %v, dmr %v", i, sa.Job, sa.Partitions, sb.Partitions)
		case !slices.Equal(sa.Splits, sb.Splits):
			return fmt.Sprintf("step %d (job %d) split counts: sim %v, dmr %v", i, sa.Job, sa.Splits, sb.Splits)
		case !slices.Equal(sa.RerunParts, sb.RerunParts):
			return fmt.Sprintf("step %d (job %d) re-run input partitions: sim %v, dmr %v", i, sa.Job, sa.RerunParts, sb.RerunParts)
		case !slices.Equal(sa.ReusedParts, sb.ReusedParts):
			return fmt.Sprintf("step %d (job %d) reused input partitions: sim %v, dmr %v", i, sa.Job, sa.ReusedParts, sb.ReusedParts)
		case sa.SplitInvalidated != sb.SplitInvalidated:
			return fmt.Sprintf("step %d (job %d) split-invalidation: sim %v, dmr %v", i, sa.Job, sa.SplitInvalidated, sb.SplitInvalidated)
		}
	}
	return ""
}

// startedRun is one run as both engines log it: the job, why the cursor
// handed it out, and whether a loss cancelled it.
type startedRun struct {
	job       int
	kind      metrics.RunKind
	cancelled bool
}

func (r startedRun) String() string {
	s := fmt.Sprintf("job %d %s", r.job, r.kind)
	if r.cancelled {
		s += " (cancelled)"
	}
	return s
}

// compareRuns checks two engines' run sequences and names the first run,
// counted from 1 as failure pulses count them, where they differ.
func compareRuns(sim, dmr []startedRun) string {
	for i := range max(len(sim), len(dmr)) {
		if i < len(sim) && i < len(dmr) && sim[i] == dmr[i] {
			continue
		}
		return fmt.Sprintf("run %d: sim %s, dmr %s", i+1, runAt(sim, i), runAt(dmr, i))
	}
	return ""
}

func runAt(runs []startedRun, i int) string {
	if i < len(runs) {
		return runs[i].String()
	}
	return "none"
}
