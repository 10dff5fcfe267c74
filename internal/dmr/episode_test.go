package dmr

import (
	"fmt"
	"testing"
)

// TestBoundaryKillRunKindsAndEpisodes pins the driver's run-kind and
// episode rules for deaths found between jobs. A job is a restart only if
// it was submitted before, so the job after a boundary kill logs as
// "initial" behind the recomputation runs; and every death found before the
// next submission folds into one recovery episode, however many workers
// died at that boundary.
func TestBoundaryKillRunKindsAndEpisodes(t *testing.T) {
	for _, victims := range [][]int{{1}, {1, 3}} {
		t.Run(fmt.Sprint(victims), func(t *testing.T) {
			c := startCluster(t, 5, 2, 40)
			cfg := baseCfg
			cfg.AfterJob = func(job int) {
				if job == 2 {
					for _, id := range victims {
						c.killAndAwaitDetection(t, id)
					}
				}
			}
			d := runChain(t, c, cfg)
			if d.RecoveryEpisodes != 1 {
				t.Fatalf("RecoveryEpisodes = %d, want 1", d.RecoveryEpisodes)
			}
			// Jobs 1..4 each log once as "initial", in order; everything
			// else is a recompute run between job 2 and job 3.
			next, recomputes := 1, 0
			for _, r := range d.RunLog {
				switch {
				case r.Kind == "initial" && r.Job == next:
					next++
				case r.Kind == "recompute" && next == 3 && !r.Err:
					recomputes++
				default:
					t.Fatalf("unexpected run %+v after %d initial runs (log %+v)", r, next-1, d.RunLog)
				}
			}
			if next != cfg.Jobs+1 || recomputes == 0 {
				t.Fatalf("%d initial runs and %d recompute runs, want %d and at least 1 (log %+v)",
					next-1, recomputes, cfg.Jobs, d.RunLog)
			}
			if d.StartedRuns != len(d.RunLog) {
				t.Fatalf("StartedRuns = %d, want %d", d.StartedRuns, len(d.RunLog))
			}
		})
	}
}
