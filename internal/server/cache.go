// Package server turns the batch experiment runner into a long-running
// sweep service: an HTTP/JSON daemon that accepts sweep-grid requests from
// many concurrent clients, streams per-job results as they complete, and
// serves repeated work out of a digest-keyed result cache.
//
// Three mechanisms sit between the HTTP surface and the simulation pool:
//
//   - a result cache keyed by experiments.ConfigDigest (cache.go). Every
//     experiment is a pure function of (spec, Config), so a job's report
//     row is byte-for-byte the row a fresh run would produce. The cache
//     stores that row, encoded once by the worker that ran the job
//     (runner.EncodeRow), and a hit copies it into the reply: the stream's
//     result events, the final report and the stream:false body are all
//     composed from cached rows. Concurrent requests for the same digest
//     single-flight onto one simulation.
//   - admission control and fair scheduling (sched.go): a bounded global
//     job queue whose overflow surfaces as HTTP 429 + Retry-After,
//     per-client backlog caps, and round-robin interleaving of clients'
//     lanes so one large sweep cannot starve small ones. Within a lane,
//     jobs run longest-first (the runner's LPT heuristic).
//   - graceful lifecycle (server.go): SIGTERM drains admitted jobs,
//     per-request timeouts bound how long a client waits (never what has
//     been admitted — admitted work completes and populates the cache),
//     and a panicking simulation is confined to the job that raised it by
//     runner.RunOne.
package server

import (
	"sync"

	"rcmp/internal/runner"
)

// entry is one cache slot. Its lifecycle is: created by the first
// requester (the owner), executed once by a scheduler worker, fulfilled,
// then shared read-only forever. done is closed exactly once, at fulfill
// or abort; row must only be read after done is closed.
type entry struct {
	key  string
	done chan struct{}
	// row is the job's timing-free report row (runner.EncodeRow). The
	// entry holds it in place of the decoded runner.Result: a hit only
	// copies it, and a full cache holds bytes, not value maps.
	row []byte

	// All fields below are guarded by the owning cache's mu and are only
	// meaningful until the entry completes or dies.
	waiters   int
	started   bool
	completed bool
	// dead marks an entry abandoned before any worker started it (every
	// waiter gave up, or the server was force-stopped); workers skip dead
	// jobs without running them.
	dead bool
}

// cacheStats is a counter snapshot.
type cacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Size    int   `json:"size"`
	Evicted int64 `json:"evicted"`
}

// resultCache is the digest-keyed result store. A "hit" counts every
// acquire served without scheduling a new simulation — including waiting
// on an identical in-flight request (single-flight); a "miss" counts every
// acquire that made its caller the owner of a fresh slot.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*entry
	hits    int64
	misses  int64
	evicted int64
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: make(map[string]*entry)}
}

// acquire registers interest in key. The second return is true when the
// caller became the owner and must arrange for the entry to be fulfilled
// (by scheduling its job); otherwise the caller just waits on e.done.
// Every acquire must be paired with release once the caller stops
// waiting.
func (c *resultCache) acquire(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		e.waiters++
		return e, false
	}
	c.evictLocked()
	e := &entry{key: key, done: make(chan struct{}), waiters: 1}
	c.entries[key] = e
	c.misses++
	return e, true
}

// evictLocked makes room for one insertion by discarding an arbitrary
// completed entry once the cache is full. Results are pure functions of
// their key, so which entry goes only costs a future re-run, never
// correctness; in-flight entries are never evicted (waiters hold them).
func (c *resultCache) evictLocked() {
	if c.max <= 0 || len(c.entries) < c.max {
		return
	}
	for k, e := range c.entries {
		if e.completed {
			delete(c.entries, k)
			c.evicted++
			return
		}
	}
}

// release drops one waiter. If the entry has no waiters left and no
// worker has started it, it dies: the cache forgets it (a later request
// re-creates and re-runs it) and the queued job is skipped.
func (c *resultCache) release(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.completed || e.dead {
		return
	}
	e.waiters--
	if e.waiters <= 0 && !e.started {
		e.dead = true
		delete(c.entries, e.key)
	}
}

// markStarted is the worker-side handshake: it claims the entry for
// execution, returning false when the entry died before any worker got to
// it (skip without running).
func (c *resultCache) markStarted(e *entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.dead {
		return false
	}
	e.started = true
	return true
}

// fulfill encodes the result's timing-free row, publishes it and wakes
// every waiter. The row leaves out wall-clock time, the one
// nondeterministic field, so cached payloads are byte-identical to a
// fresh run's deterministic encoding. The encoding runs on the calling
// worker, outside the lock.
func (c *resultCache) fulfill(e *entry, res runner.Result) {
	row := runner.EncodeRow(res, false)
	c.mu.Lock()
	if e.dead {
		// Aborted between start and completion; waiters were already
		// woken with an error and done is closed.
		c.mu.Unlock()
		return
	}
	e.row = row
	e.completed = true
	c.mu.Unlock()
	close(e.done)
}

// abort fails a not-yet-started entry without caching anything: the entry
// leaves the map (a later request re-runs the job) and waiters see a row
// carrying only the given error. Entries a worker has claimed are
// left alone — their run is about to fulfill them.
func (c *resultCache) abort(e *entry, job runner.Job, errMsg string) {
	c.mu.Lock()
	if e.completed || e.dead || e.started {
		c.mu.Unlock()
		return
	}
	e.dead = true
	delete(c.entries, e.key)
	e.row = runner.EncodeRow(runner.Result{Name: job.Name, Config: job.Config, Err: errMsg}, false)
	c.mu.Unlock()
	close(e.done)
}

// stats snapshots the counters.
func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Hits: c.hits, Misses: c.misses, Size: len(c.entries), Evicted: c.evicted}
}
