package dmr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunTasks pins the one bounded fan-out the map and reduce phases, the
// shuffle and OutputDigests share.
func TestRunTasks(t *testing.T) {
	t.Run("limit bounds concurrency", func(t *testing.T) {
		for _, limit := range []int{1, 3, 8} {
			var gauge, peak atomic.Int32
			err := runTasks(24, limit, func(int) error {
				n := gauge.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				gauge.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := peak.Load(); p > int32(limit) || p < 1 {
				t.Fatalf("limit %d: peak concurrency %d", limit, p)
			}
		}
	})

	t.Run("zero limit starts every task at once", func(t *testing.T) {
		const n = 16
		var started sync.WaitGroup
		started.Add(n)
		all := make(chan struct{})
		go func() { started.Wait(); close(all) }()
		err := runTasks(n, 0, func(i int) error {
			started.Done()
			select {
			case <-all:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("task %d: not every task started", i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("every index runs exactly once", func(t *testing.T) {
		for _, limit := range []int{0, 1, 4, 100} {
			runs := make([]atomic.Int32, 50)
			if err := runTasks(len(runs), limit, func(i int) error {
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Fatalf("limit %d: index %d ran %d times", limit, i, n)
				}
			}
		}
		if err := runTasks(0, 3, func(int) error { return errors.New("ran") }); err != nil {
			t.Fatalf("no tasks: %v", err)
		}
	})

	t.Run("lowest failing index wins", func(t *testing.T) {
		// first is the index that fails first in time; the other waits
		// for it, so the completion order is forced both ways.
		for _, first := range []int{5, 2} {
			for _, limit := range []int{0, 8} {
				failed := make(chan struct{})
				err := runTasks(8, limit, func(i int) error {
					switch i {
					case first:
						defer close(failed)
						return fmt.Errorf("task %d", i)
					case 2, 5:
						<-failed
						return fmt.Errorf("task %d", i)
					}
					return nil
				})
				if err == nil || err.Error() != "task 2" {
					t.Fatalf("first failure %d, limit %d: err = %v, want task 2", first, limit, err)
				}
			}
		}
	})
}
