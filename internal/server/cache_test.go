package server

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// syntheticJob builds a runner job whose Run is under test control —
// simulations are too coarse a probe for scheduler-level behavior.
func syntheticJob(name string, cost float64, run func(experiments.Config) (*experiments.Result, error)) runner.Job {
	return runner.Job{
		Name:   name,
		Key:    "synthetic/" + name,
		Config: experiments.Config{Scale: experiments.ScaleQuick},
		Cost:   cost,
		Run:    run,
	}
}

// waitDone waits for e and decodes its cached row.
func waitDone(t *testing.T, e *entry) runner.ReportResult {
	t.Helper()
	var row runner.ReportResult
	select {
	case <-e.done:
		if err := json.Unmarshal(e.row, &row); err != nil {
			t.Errorf("cached row %q: %v", e.row, err)
		}
	case <-time.After(10 * time.Second):
		t.Error("entry never fulfilled")
	}
	return row
}

// TestCacheSingleFlight: N goroutines acquiring the same key produce one
// owner, one simulation, and N identical results; hit/miss counters
// attribute N-1 hits.
func TestCacheSingleFlight(t *testing.T) {
	cache := newResultCache(16)
	sched := newScheduler(cache, 2, 64, 64)
	defer sched.shutdown(context.Background())

	var runs atomic.Int64
	job := syntheticJob("once", 1, func(experiments.Config) (*experiments.Result, error) {
		runs.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the single-flight window
		return &experiments.Result{Name: "once", Text: "payload"}, nil
	})

	const n = 12
	var wg sync.WaitGroup
	results := make([]runner.ReportResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, owner := cache.acquire("same-key")
			if owner {
				if err := sched.submit("c", []schedJob{{job: job, e: e}}); err != nil {
					t.Error(err)
					cache.release(e)
					return
				}
			}
			results[i] = waitDone(t, e)
			cache.release(e)
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation ran %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i].Text != "payload" || results[i].Text != results[0].Text {
			t.Fatalf("waiter %d saw a different result", i)
		}
	}
	st := cache.stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("counters hits=%d misses=%d, want %d/1", st.Hits, st.Misses, n-1)
	}
}

// TestSchedulerRoundRobinFairness: with one worker and client A's large
// backlog already queued, client B's single job runs next, not after all
// of A's.
func TestSchedulerRoundRobinFairness(t *testing.T) {
	cache := newResultCache(64)
	sched := newScheduler(cache, 1, 64, 64)
	defer sched.shutdown(context.Background())

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	record := func(name string, block bool) runner.Job {
		return syntheticJob(name, 1, func(experiments.Config) (*experiments.Result, error) {
			if block {
				<-gate
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return &experiments.Result{Name: name}, nil
		})
	}

	submit := func(client string, jobs ...runner.Job) []*entry {
		t.Helper()
		var batch []schedJob
		var es []*entry
		for _, j := range jobs {
			e, owner := cache.acquire(j.Key)
			if !owner {
				t.Fatalf("duplicate key %s", j.Key)
			}
			batch = append(batch, schedJob{job: j, e: e})
			es = append(es, e)
		}
		if err := sched.submit(client, batch); err != nil {
			t.Fatal(err)
		}
		return es
	}

	// The gate job occupies the single worker while both lanes fill.
	gateEntries := submit("A", record("A-gate", true))
	aEntries := submit("A", record("A1", false), record("A2", false), record("A3", false), record("A4", false))
	bEntries := submit("B", record("B1", false))
	close(gate)

	for _, e := range append(append(gateEntries, aEntries...), bEntries...) {
		waitDone(t, e)
		cache.release(e)
	}
	mu.Lock()
	defer mu.Unlock()
	// After the gate, round-robin must interleave: B1 within the next two
	// jobs, never behind A's whole backlog.
	if order[0] != "A-gate" {
		t.Fatalf("order %v", order)
	}
	pos := -1
	for i, name := range order {
		if name == "B1" {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("B1 starved: execution order %v", order)
	}
}

// TestSchedulerLPTWithinLane: a single client's batch starts
// longest-job-first regardless of submission order.
func TestSchedulerLPTWithinLane(t *testing.T) {
	cache := newResultCache(64)
	sched := newScheduler(cache, 1, 64, 64)
	defer sched.shutdown(context.Background())

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	mk := func(name string, cost float64, block bool) runner.Job {
		return syntheticJob(name, cost, func(experiments.Config) (*experiments.Result, error) {
			if block {
				<-gate
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return &experiments.Result{Name: name}, nil
		})
	}

	var batch []schedJob
	var es []*entry
	for _, j := range []runner.Job{mk("gate", 100, true), mk("short", 1, false), mk("long", 50, false), mk("mid", 10, false)} {
		e, _ := cache.acquire(j.Key)
		batch = append(batch, schedJob{job: j, e: e})
		es = append(es, e)
	}
	if err := sched.submit("c", batch); err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, e := range es {
		waitDone(t, e)
		cache.release(e)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"gate", "long", "mid", "short"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LPT order %v, want %v", order, want)
		}
	}
}

// TestWorkerPanicConfined: a panicking simulation fails its own job with
// the panic message as its row's error and the worker keeps serving. (The
// stack RunOne captures stays out of the row: runner's
// TestPanicStackCapturedAndStrippedFromReports pins both halves.)
func TestWorkerPanicConfined(t *testing.T) {
	cache := newResultCache(16)
	sched := newScheduler(cache, 1, 64, 64)
	defer sched.shutdown(context.Background())

	bad := syntheticJob("bad", 1, func(experiments.Config) (*experiments.Result, error) {
		panic("simulator bug")
	})
	good := syntheticJob("good", 1, func(experiments.Config) (*experiments.Result, error) {
		return &experiments.Result{Name: "good"}, nil
	})

	eBad, _ := cache.acquire(bad.Key)
	eGood, _ := cache.acquire(good.Key)
	if err := sched.submit("c", []schedJob{{job: bad, e: eBad}, {job: good, e: eGood}}); err != nil {
		t.Fatal(err)
	}
	resBad := waitDone(t, eBad)
	resGood := waitDone(t, eGood)
	cache.release(eBad)
	cache.release(eGood)

	if resBad.Error != "simulator bug" {
		t.Fatalf("panic not recorded as the job's error: %q", resBad.Error)
	}
	if resGood.Error != "" || resGood.Experiment != "good" {
		t.Fatalf("panic took the worker down with it: %+v", resGood)
	}
}

// TestAbandonedJobSkipped: when every waiter releases a not-yet-started
// entry, the worker skips it without simulating and the cache forgets it.
func TestAbandonedJobSkipped(t *testing.T) {
	cache := newResultCache(16)
	sched := newScheduler(cache, 1, 64, 64)
	defer sched.shutdown(context.Background())

	gate := make(chan struct{})
	blocker := syntheticJob("blocker", 1, func(experiments.Config) (*experiments.Result, error) {
		<-gate
		return &experiments.Result{Name: "blocker"}, nil
	})
	var ran atomic.Bool
	doomed := syntheticJob("doomed", 1, func(experiments.Config) (*experiments.Result, error) {
		ran.Store(true)
		return &experiments.Result{Name: "doomed"}, nil
	})

	eB, _ := cache.acquire(blocker.Key)
	eD, _ := cache.acquire(doomed.Key)
	if err := sched.submit("c", []schedJob{{job: blocker, e: eB}, {job: doomed, e: eD}}); err != nil {
		t.Fatal(err)
	}
	// The sole waiter walks away while doomed is still queued behind blocker.
	cache.release(eD)
	close(gate)
	waitDone(t, eB)
	cache.release(eB)

	// Drain so the worker has definitely passed over the dead job.
	if err := sched.shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("abandoned job was simulated anyway")
	}
	if st := cache.stats(); st.Size != 1 {
		t.Fatalf("cache size %d, want 1 (blocker only)", st.Size)
	}
}

// TestForcedShutdownAbortsQueued: an expired drain deadline fails queued
// jobs with an error result instead of hanging their waiters.
func TestForcedShutdownAbortsQueued(t *testing.T) {
	cache := newResultCache(16)
	sched := newScheduler(cache, 1, 64, 64)

	release := make(chan struct{})
	slow := syntheticJob("slow", 1, func(experiments.Config) (*experiments.Result, error) {
		<-release
		return &experiments.Result{Name: "slow"}, nil
	})
	queuedJob := syntheticJob("queued", 1, func(experiments.Config) (*experiments.Result, error) {
		return &experiments.Result{Name: "queued"}, nil
	})

	eS, _ := cache.acquire(slow.Key)
	eQ, _ := cache.acquire(queuedJob.Key)
	if err := sched.submit("c", []schedJob{{job: slow, e: eS}, {job: queuedJob, e: eQ}}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sched.shutdown(ctx) }()

	res := waitDone(t, eQ) // must be aborted promptly, not wait on slow
	if !strings.Contains(res.Error, "shut down") {
		t.Fatalf("queued job not aborted: %+v", res)
	}
	cache.release(eQ)

	close(release) // let the running job finish so workers can exit
	if err := <-done; err == nil {
		t.Fatal("forced shutdown should report an error")
	}
	if res := waitDone(t, eS); res.Error != "" || res.Experiment != "slow" {
		t.Fatalf("running job should still complete: %+v", res)
	}
	cache.release(eS)
}

// TestCacheEviction: a full cache evicts completed entries to admit new
// ones and never evicts in-flight work.
func TestCacheEviction(t *testing.T) {
	cache := newResultCache(2)
	e1, _ := cache.acquire("k1")
	cache.markStarted(e1)
	cache.fulfill(e1, runner.Result{Name: "k1"})
	cache.release(e1)

	e2, _ := cache.acquire("k2") // in flight, never evictable

	e3, _ := cache.acquire("k3") // forces eviction of completed k1
	st := cache.stats()
	if st.Evicted != 1 || st.Size != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if _, owner := cache.acquire("k1"); !owner {
		t.Fatal("k1 should have been evicted and re-owned")
	}
	_ = e2
	_ = e3
}
