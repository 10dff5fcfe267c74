package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// errQueueFull is returned by submit when the global backlog bound would
// be exceeded; the HTTP layer maps it to 429 with a Retry-After hint.
var errQueueFull = errors.New("server: job queue full")

// errClientBacklog is errQueueFull's per-client sibling: this client
// already has its maximum backlog admitted.
var errClientBacklog = errors.New("server: client backlog cap reached")

// errDraining rejects new work during shutdown.
var errDraining = errors.New("server: draining")

// schedJob is one admitted unit of work: a runner job bound to the cache
// entry its waiters are parked on.
type schedJob struct {
	job runner.Job
	e   *entry
}

// lane is one client's FIFO backlog. Jobs within a single submit are
// ordered cost-descending (LPT), so a client's own longest job never
// starts last; across clients the scheduler round-robins lanes.
type lane struct {
	jobs    []schedJob
	running int
}

// scheduler fans admitted jobs out to a fixed worker pool with round-robin
// fairness across client lanes. All mutable state is guarded by mu; empty
// is signaled whenever queued+running can have reached zero.
type scheduler struct {
	cache   *resultCache
	workers int
	maxQ    int // global queued-job bound
	maxLane int // per-client queued+running bound

	mu       sync.Mutex
	cond     *sync.Cond // workers wait here for jobs
	empty    *sync.Cond // Shutdown waits here for drain
	lanes    map[string]*lane
	ring     []string // clients with queued jobs, round-robin order
	next     int      // ring cursor
	queued   int
	running  int
	executed int64 // jobs actually simulated (cache misses run to completion)
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

func newScheduler(cache *resultCache, workers, maxQueued, maxLane int) *scheduler {
	s := &scheduler{
		cache:   cache,
		workers: workers,
		maxQ:    maxQueued,
		maxLane: maxLane,
		lanes:   make(map[string]*lane),
	}
	s.cond = sync.NewCond(&s.mu)
	s.empty = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// submit admits a batch of jobs for one client atomically: either every
// job is queued or none is. Jobs are enqueued longest-first within the
// batch (LPT); results are unaffected by start order.
func (s *scheduler) submit(client string, jobs []schedJob) error {
	if len(jobs) == 0 {
		return nil
	}
	ordered := make([]schedJob, len(jobs))
	copy(ordered, jobs)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].job.Cost > ordered[b].job.Cost })

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining || s.closed:
		return errDraining
	case s.queued+len(ordered) > s.maxQ:
		return errQueueFull
	}
	ln := s.lanes[client]
	if ln == nil {
		ln = &lane{}
		s.lanes[client] = ln
	}
	if len(ln.jobs)+ln.running+len(ordered) > s.maxLane {
		return errClientBacklog
	}
	if len(ln.jobs) == 0 {
		s.ring = append(s.ring, client)
	}
	ln.jobs = append(ln.jobs, ordered...)
	s.queued += len(ordered)
	s.cond.Broadcast()
	return nil
}

// pop takes the next job round-robin across lanes. Caller holds mu and
// has checked queued > 0.
func (s *scheduler) pop() (string, schedJob) {
	if s.next >= len(s.ring) {
		s.next = 0
	}
	client := s.ring[s.next]
	ln := s.lanes[client]
	j := ln.jobs[0]
	ln.jobs = ln.jobs[1:]
	ln.running++
	s.running++
	s.queued--
	if len(ln.jobs) == 0 {
		s.ring = append(s.ring[:s.next], s.ring[s.next+1:]...)
		// cursor now points at the next client already; no advance
	} else {
		s.next++
	}
	return client, j
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	var w experiments.Worker // this worker's simulation context, reused across jobs
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queued == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		client, j := s.pop()
		s.mu.Unlock()

		if s.cache.markStarted(j.e) {
			res := runner.RunOne(j.job, &w)
			// Count the job before fulfilling it: fulfill wakes the
			// waiters, and a woken request may read the stats at once.
			s.mu.Lock()
			s.executed++
			s.mu.Unlock()
			s.cache.fulfill(j.e, res)
		}
		// else: every waiter abandoned the job before it started — skip
		// without simulating (the cache already forgot the entry).

		s.mu.Lock()
		s.running--
		if ln := s.lanes[client]; ln != nil {
			ln.running--
			if ln.running == 0 && len(ln.jobs) == 0 {
				delete(s.lanes, client)
			}
		}
		if s.queued == 0 && s.running == 0 {
			s.empty.Broadcast()
		}
		s.mu.Unlock()
	}
}

// depth reports (queued, running) for stats and Retry-After estimation.
func (s *scheduler) depth() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.running
}

func (s *scheduler) executedJobs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.executed
}

// retryAfterSec estimates how long until queue space frees up: the queued
// backlog spread over the worker pool, assuming jobs in the tens of
// milliseconds (the smoke tier). Clamped to [1, 30] — the hint only needs
// the right order of magnitude to keep well-behaved clients from hammering.
func (s *scheduler) retryAfterSec() int {
	s.mu.Lock()
	q := s.queued
	s.mu.Unlock()
	sec := q / (s.workers * 20)
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// shutdown drains the scheduler: no new submissions, every admitted job
// runs to completion, then workers exit. If ctx expires first, jobs still
// queued are aborted — their waiters get an error result and the cache
// forgets them — and workers exit after their current job.
func (s *scheduler) shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.mu.Lock()
		for (s.queued > 0 || s.running > 0) && !s.closed {
			s.empty.Wait()
		}
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
		close(drained)
	}()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = fmt.Errorf("server: forced shutdown with jobs queued: %w", ctx.Err())
		s.mu.Lock()
		s.closed = true
		for _, client := range s.ring {
			ln := s.lanes[client]
			for _, j := range ln.jobs {
				s.cache.abort(j.e, j.job, "server: shut down before the job ran")
			}
			ln.jobs = nil
		}
		s.ring = nil
		s.queued = 0
		s.cond.Broadcast()
		s.empty.Broadcast()
		s.mu.Unlock()
		<-drained
	}
	s.wg.Wait()
	return err
}
