package wire

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// startChaosServer wraps a fresh listener in the injector under the given
// endpoint name and serves the standard test handler on it.
func startChaosServer(t *testing.T, c *Chaos, name string) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(c.WrapListener(ln, name), testHandler)
	t.Cleanup(func() { s.Close() })
	return s
}

// traceRecorder collects TraceEvents; safe for the Trace hook's locking.
type traceRecorder struct {
	mu  sync.Mutex
	evs []TraceEvent
}

func (r *traceRecorder) hook() func(TraceEvent) {
	return func(ev TraceEvent) {
		r.mu.Lock()
		r.evs = append(r.evs, ev)
		r.mu.Unlock()
	}
}

func (r *traceRecorder) events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TraceEvent(nil), r.evs...)
}

// chaosSession runs a fixed script of echo calls through a chaos transport
// and returns the injected-fault trace. The script is deterministic: one
// client, sequential calls, so connection establishment order and per-write
// sequencing are identical across runs with the same seed.
func chaosSession(t *testing.T, seed int64) []TraceEvent {
	t.Helper()
	rec := &traceRecorder{}
	c := &Chaos{
		Seed:     seed,
		Latency:  200 * time.Microsecond,
		Jitter:   300 * time.Microsecond,
		DropProb: 0.3,
		Trace:    rec.hook(),
	}
	s := startChaosServer(t, c, "srv")
	nc, err := c.Dial("cli", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(nc)
	defer cl.Close()
	for i := 0; i < 12; i++ {
		// Short timeout: a dropped request or reply must not stall the
		// script, only record its fault and move on.
		_, _ = cl.Call(echoReq{N: i}, 30*time.Millisecond)
	}
	return rec.events()
}

func TestChaosDeterministicTrace(t *testing.T) {
	a := chaosSession(t, 7)
	b := chaosSession(t, 7)
	if len(a) == 0 {
		t.Fatal("chaos session injected no faults; script or knobs are wrong")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different traces:\n%v\n%v", a, b)
	}
	c := chaosSession(t, 8)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical traces; PRNG is not seeded per spec")
	}
}

func TestChaosZeroValueIsTransparent(t *testing.T) {
	rec := &traceRecorder{}
	c := &Chaos{Seed: 1, Trace: rec.hook()}
	s := startChaosServer(t, c, "srv")
	nc, err := c.Dial("cli", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(nc)
	defer cl.Close()
	for i := 0; i < 5; i++ {
		resp, err := cl.Call(echoReq{N: i}, time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if e := resp.(echoResp); e.N != i {
			t.Fatalf("call %d echoed %d", i, e.N)
		}
	}
	if evs := rec.events(); len(evs) != 0 {
		t.Fatalf("transparent chaos injected faults: %v", evs)
	}
}

func TestChaosPartitionBlocksThenHeals(t *testing.T) {
	c := &Chaos{Seed: 1}
	s := startChaosServer(t, c, "srv")
	nc, err := c.Dial("cli", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(nc)
	defer cl.Close()
	if _, err := cl.Call(echoReq{N: 0}, time.Second); err != nil {
		t.Fatalf("pre-partition call: %v", err)
	}

	c.Partition("cli", "srv")
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := cl.Call(echoReq{N: 1}, 5*time.Second)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("call completed during partition (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.Heal("cli", "srv")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after heal: %v", err)
		}
		if time.Since(start) < 50*time.Millisecond {
			t.Fatal("call returned before the partition was held")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call never completed after heal")
	}
}

func TestChaosPartitionIsOneWay(t *testing.T) {
	// Blocking srv->cli delays only replies; the request still arrives and
	// is served, which the handler's side effects would show. Here we check
	// the directional block: cli->srv open means the call completes once
	// the reply direction heals.
	c := &Chaos{Seed: 1}
	s := startChaosServer(t, c, "srv")
	nc, err := c.Dial("cli", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(nc)
	defer cl.Close()
	c.Partition("srv", "cli")
	done := make(chan error, 1)
	go func() {
		_, err := cl.Call(echoReq{N: 1}, 5*time.Second)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("reply crossed a blocked srv->cli link")
	case <-time.After(50 * time.Millisecond):
	}
	c.HealAll()
	if err := <-done; err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

func TestChaosWildcardPartition(t *testing.T) {
	c := &Chaos{Seed: 1}
	c.Partition("cli", "*")
	s := startChaosServer(t, c, "srv")
	if _, err := c.Dial("cli", s.Addr(), 50*time.Millisecond); err == nil {
		t.Fatal("dial succeeded across a wildcard partition")
	}
	c.HealAll()
	nc, err := c.Dial("cli", s.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial after HealAll: %v", err)
	}
	cl := NewClient(nc)
	defer cl.Close()
	if _, err := cl.Call(echoReq{N: 1}, time.Second); err != nil {
		t.Fatalf("call after HealAll: %v", err)
	}
}

func TestChaosResetAfterSeversConnection(t *testing.T) {
	rec := &traceRecorder{}
	c := &Chaos{Seed: 1, ResetAfter: 2, Trace: rec.hook()}
	s := startChaosServer(t, c, "srv")
	nc, err := c.Dial("cli", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(nc)
	defer cl.Close()
	// Gob needs a few writes for type definitions; within a handful of
	// calls the write budget is exhausted and the connection resets.
	var lastErr error
	for i := 0; i < 6; i++ {
		if _, lastErr = cl.Call(echoReq{N: i}, time.Second); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("connection survived ResetAfter budget")
	}
	if !IsTransportError(lastErr) {
		t.Fatalf("reset surfaced as app error: %v", lastErr)
	}
	sawReset := false
	for _, ev := range rec.events() {
		if ev.Op == "reset" {
			sawReset = true
		}
	}
	if !sawReset {
		t.Fatal("no reset event in trace")
	}
}

func TestPoolRetriesTransportErrors(t *testing.T) {
	// A chaos transport that resets every connection after a few writes
	// makes single-shot calls flaky; a retry budget rides through because
	// each retry re-dials fresh.
	c := &Chaos{Seed: 3, ResetAfter: 4}
	s := startChaosServer(t, c, "srv")
	p := NewPoolOpts(time.Second, PoolOptions{
		Chaos: c,
		Self:  "cli",
		Retry: RetryPolicy{Max: 4, Seed: 1},
	})
	defer p.Close()
	for i := 0; i < 10; i++ {
		resp, err := p.Call(s.Addr(), echoReq{N: i}, time.Second)
		if err != nil {
			t.Fatalf("call %d not healed by retries: %v", i, err)
		}
		if e := resp.(echoResp); e.N != i {
			t.Fatalf("call %d echoed %d", i, e.N)
		}
	}
}

func TestPoolNeverRetriesAppErrors(t *testing.T) {
	var handled int32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, func(from net.Addr, req any) (any, error) {
		handled++
		return nil, fmt.Errorf("boom %d", handled)
	})
	defer s.Close()
	p := NewPoolOpts(time.Second, PoolOptions{
		Retry: RetryPolicy{Max: 5, Seed: 1},
	})
	defer p.Close()
	_, err = p.Call(s.Addr(), echoReq{N: 1}, time.Second)
	if err == nil {
		t.Fatal("handler error vanished")
	}
	if IsTransportError(err) {
		t.Fatalf("app error classified as transport: %v", err)
	}
	if err.Error() != "boom 1" {
		t.Fatalf("handler ran more than once or message mangled: %v", err)
	}
}

func TestPoolRetryStopsWhenClosed(t *testing.T) {
	p := NewPoolOpts(50*time.Millisecond, PoolOptions{
		Retry: RetryPolicy{Max: 1000, Seed: 1},
	})
	p.Close()
	start := time.Now()
	_, err := p.Call("127.0.0.1:1", echoReq{N: 1}, time.Second)
	if err == nil {
		t.Fatal("call on closed pool succeeded")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("closed pool kept retrying for %v", d)
	}
}

func TestRetryPolicyBackoffBounds(t *testing.T) {
	if retryBase != 2*time.Millisecond || retryCap != 250*time.Millisecond {
		t.Fatalf("backoff constants = %v, %v; want 2ms, 250ms", retryBase, retryCap)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 12; k++ {
		bound := retryBase << k
		if bound > retryCap {
			bound = retryCap
		}
		for i := 0; i < 100; i++ {
			d := backoff(k, rng)
			if d <= 0 || d > bound {
				t.Fatalf("backoff(%d) = %v outside (0, %v]", k, d, bound)
			}
		}
	}
}
