package runner

import (
	"strings"
	"sync"
	"testing"

	"rcmp/internal/experiments"
)

// panicOnLane is the stub figures' panic site; a job's Err must name it.
func panicOnLane(msg string) { panic(msg) }

// TestFanOutLanePanic pins what a genuine panic in one of a figure's
// fanned-out runs becomes: the job's Err starts with the panic's own
// message, the line a serial run reports, and still carries the stack of
// the lane the panic began on.
func TestFanOutLanePanic(t *testing.T) {
	const msg = "stub: lane 1 panicked"
	w := experiments.NewWorker(2)
	res := RunOne(Job{Name: "lane-panic", Run: func(experiments.Config) (*experiments.Result, error) {
		var arrived sync.WaitGroup
		arrived.Add(2)
		w.Each(2, func(lane *experiments.Worker, i int) {
			// Both runs wait for each other, so they run at once, on
			// different lanes; lane 0 is the Worker itself.
			arrived.Done()
			arrived.Wait()
			if lane != w {
				panicOnLane(msg)
			}
		})
		return nil, nil
	}}, w)
	if got := res.ErrMessage(); got != msg {
		t.Fatalf("ErrMessage %q, want %q", got, msg)
	}
	if !strings.Contains(res.Err, "panicOnLane") {
		t.Fatalf("Err lost the lane's panic site:\n%s", res.Err)
	}

	serial := RunOne(Job{Name: "serial-panic", Run: func(experiments.Config) (*experiments.Result, error) {
		experiments.NewWorker(1).Each(2, func(_ *experiments.Worker, i int) {
			if i == 1 {
				panicOnLane(msg)
			}
		})
		return nil, nil
	}}, nil)
	if serial.ErrMessage() != res.ErrMessage() {
		t.Fatalf("fanned out %q, serial %q", res.ErrMessage(), serial.ErrMessage())
	}
}

// TestFanOutLowestFailure pins the error order: a stub figure whose runs 2
// and 5 fail reports run 2's failure at every width, as its serial loop
// would, even when run 5 fails first.
func TestFanOutLowestFailure(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		w := experiments.NewWorker(width)
		failed5 := make(chan struct{})
		res := RunOne(Job{Name: "two-failures", Run: func(experiments.Config) (*experiments.Result, error) {
			w.Each(8, func(_ *experiments.Worker, i int) {
				switch {
				case i == 2 && width > 1:
					<-failed5 // another lane fails run 5 first
					panicOnLane("stub: run 2 failed")
				case i == 2:
					panicOnLane("stub: run 2 failed")
				case i == 5:
					close(failed5)
					panicOnLane("stub: run 5 failed")
				}
			})
			return nil, nil
		}}, w)
		if got, want := res.ErrMessage(), "stub: run 2 failed"; got != want {
			t.Errorf("width %d: ErrMessage %q, want %q", width, got, want)
		}
	}
}

// TestFanOutWidth pins who sets a pool worker's width: max(1,
// workers/jobs) lanes, so a short job list fans out and a grid with at
// least as many jobs as workers runs each job on one lane.
func TestFanOutWidth(t *testing.T) {
	for _, c := range []struct{ workers, jobs, lanes int }{
		{4, 1, 4}, {4, 2, 2}, {4, 3, 1}, {4, 4, 1}, {4, 9, 1}, {1, 1, 1}, {2, 0, 2},
	} {
		if got := laneWidth(c.workers, c.jobs); got != c.lanes {
			t.Errorf("%d workers, %d jobs: %d lanes, want %d", c.workers, c.jobs, got, c.lanes)
		}
	}
}
