package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type echoReq struct {
	N       int
	Payload []byte
}

type echoResp struct {
	N       int
	Payload []byte
}

type failReq struct{ Msg string }

type slowReq struct{ Delay time.Duration }

func init() {
	Register(echoReq{})
	Register(echoResp{})
	Register(failReq{})
	Register(slowReq{})
}

func testHandler(_ net.Addr, req any) (any, error) { return handleTest(req, nil) }

// handleTest serves the test requests. A slowReq waits out its delay or
// until release is closed, whichever comes first (a nil release never
// is).
func handleTest(req any, release <-chan struct{}) (any, error) {
	switch r := req.(type) {
	case echoReq:
		return echoResp{N: r.N, Payload: r.Payload}, nil
	case failReq:
		return nil, errors.New(r.Msg)
	case slowReq:
		delay := time.NewTimer(r.Delay)
		defer delay.Stop()
		select {
		case <-delay.C:
		case <-release:
		}
		return echoResp{N: -1}, nil
	default:
		return nil, fmt.Errorf("unknown request %T", req)
	}
}

func startServer(t *testing.T) *Server {
	t.Helper()
	return startServerWith(t, testHandler)
}

// startReleasableServer is startServer whose parked slowReq handlers
// return once the returned channel is closed. Server.Close waits for its
// handlers, so a test that parks one closes the channel after its
// assertions instead of waiting out the delay.
func startReleasableServer(t *testing.T) (*Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s := startServerWith(t, func(_ net.Addr, req any) (any, error) { return handleTest(req, release) })
	return s, release
}

func startServerWith(t *testing.T, h Handler) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, h)
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestCallRoundTrip(t *testing.T) {
	s := startServer(t)
	cl := dial(t, s.Addr())
	resp, err := cl.Call(echoReq{N: 42, Payload: []byte("hello")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := resp.(echoResp)
	if !ok {
		t.Fatalf("reply type %T", resp)
	}
	if e.N != 42 || string(e.Payload) != "hello" {
		t.Fatalf("reply %+v", e)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	s := startServer(t)
	cl := dial(t, s.Addr())
	_, err := cl.Call(failReq{Msg: "boom with context"}, time.Second)
	if err == nil || err.Error() != "boom with context" {
		t.Fatalf("err = %v, want handler error by value", err)
	}
	// The connection must stay usable after an application error.
	if _, err := cl.Call(echoReq{N: 1}, time.Second); err != nil {
		t.Fatalf("call after app error: %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	s := startServer(t)
	cl := dial(t, s.Addr())
	const calls = 64
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.Call(echoReq{N: i}, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			if got := resp.(echoResp).N; got != i {
				errs[i] = fmt.Errorf("call %d answered %d", i, got)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLargePayload(t *testing.T) {
	s := startServer(t)
	cl := dial(t, s.Addr())
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp, err := cl.Call(echoReq{N: 7, Payload: big}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.(echoResp).Payload
	if len(got) != len(big) {
		t.Fatalf("len = %d, want %d", len(got), len(big))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestCallTimeout(t *testing.T) {
	s, release := startReleasableServer(t)
	defer close(release)
	cl := dial(t, s.Addr())
	start := time.Now()
	_, err := cl.Call(slowReq{Delay: 2 * time.Second}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	s, release := startReleasableServer(t)
	cl := dial(t, s.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Call(slowReq{Delay: 5 * time.Second}, 10*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the server
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }() // returns once the handler does
	defer func() { close(release); <-closed }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call survived server close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("pending call not failed by server close")
	}
}

func TestClientCloseRejectsCalls(t *testing.T) {
	s := startServer(t)
	cl := dial(t, s.Addr())
	cl.Close()
	if _, err := cl.Call(echoReq{}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	// A listener that is immediately closed yields a port nothing accepts on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestPoolReusesAndRedials(t *testing.T) {
	s := startServer(t)
	p := NewPool(time.Second)
	defer p.Close()

	c1, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("pool did not reuse the cached client")
	}
	if _, err := p.Call(s.Addr(), echoReq{N: 3}, time.Second); err != nil {
		t.Fatal(err)
	}

	// After Drop, the pool must dial a fresh client.
	p.Drop(s.Addr())
	c3, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("pool returned the dropped client")
	}
}

func TestPoolCallAppErrorKeepsConnection(t *testing.T) {
	s := startServer(t)
	p := NewPool(time.Second)
	defer p.Close()
	before, _ := p.Get(s.Addr())
	if _, err := p.Call(s.Addr(), failReq{Msg: "app"}, time.Second); err == nil {
		t.Fatal("expected app error")
	}
	after, _ := p.Get(s.Addr())
	if before != after {
		t.Fatal("pool dropped connection on application error")
	}
}

func TestPoolCallTransportErrorDrops(t *testing.T) {
	s := startServer(t)
	p := NewPool(time.Second)
	defer p.Close()
	if _, err := p.Call(s.Addr(), echoReq{N: 1}, time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := p.Call(s.Addr(), echoReq{N: 2}, 500*time.Millisecond); err == nil {
		t.Fatal("call to closed server succeeded")
	}
	p.mu.Lock()
	_, cached := p.clients[s.Addr()]
	p.mu.Unlock()
	if cached {
		t.Fatal("pool kept the dead connection")
	}
}

func TestPoolClosedGet(t *testing.T) {
	p := NewPool(time.Second)
	p.Close()
	if _, err := p.Get("127.0.0.1:1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestManyClientsOneServer(t *testing.T) {
	s := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(s.Addr(), time.Second)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			for i := 0; i < 16; i++ {
				resp, err := cl.Call(echoReq{N: c*100 + i}, 5*time.Second)
				if err != nil {
					errs[c] = err
					return
				}
				if got := resp.(echoResp).N; got != c*100+i {
					errs[c] = fmt.Errorf("client %d call %d answered %d", c, i, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type unregistered struct{ X int }

func TestUnregisteredBodyFailsTheCallNotTheSuite(t *testing.T) {
	s := startServer(t)
	cl := dial(t, s.Addr())
	// Gob cannot encode an interface holding an unregistered concrete type;
	// the send must fail by value, not hang or panic.
	if _, err := cl.Call(unregistered{X: 1}, time.Second); err == nil {
		t.Fatal("call with unregistered body succeeded")
	}
}

func TestServerIgnoresStrayReplyEnvelopes(t *testing.T) {
	s := startServer(t)
	cl := dial(t, s.Addr())
	// Hand-craft a reply-flagged envelope to the server; it must be ignored
	// and the connection must stay healthy.
	if err := cl.c.send(&Envelope{ID: 99, Reply: true, Body: echoResp{N: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Call(echoReq{N: 5}, time.Second); err != nil {
		t.Fatalf("call after stray reply: %v", err)
	}
}

// ---- regression: Server.Close must wait for in-flight handlers ----

func TestServerCloseWaitsForHandlers(t *testing.T) {
	started := make(chan struct{})
	var finished atomic.Bool
	h := func(_ net.Addr, req any) (any, error) {
		close(started)
		time.Sleep(150 * time.Millisecond)
		finished.Store(true)
		return echoResp{N: 1}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, h)
	cl := dial(t, s.Addr())
	go func() { _, _ = cl.Call(echoReq{N: 1}, 5*time.Second) }()
	<-started
	s.Close()
	if !finished.Load() {
		t.Fatal("Close returned while a handler goroutine was still running")
	}
}

// ---- regression: transport-vs-application classification is typed ----

func TestIsAppErrorTyped(t *testing.T) {
	cases := []struct {
		name string
		err  error
		app  bool
	}{
		// Handler errors arrive re-materialized as plain errors.New text;
		// adversarial messages mimicking transport prefixes must still be
		// classified as application errors.
		{"spoofed send prefix", errors.New("wire: send: from the handler"), true},
		{"spoofed dial prefix", errors.New("wire: dial 10.0.0.1:1: refused"), true},
		{"spoofed lost prefix", errors.New("wire: connection lost: just kidding"), true},
		{"spoofed timeout prefix", errors.New("wire: call timed out after 30s"), true},
		{"plain handler error", errors.New("task 7 not found"), true},
		// Real transport errors carry the type.
		{"real send failure", transportf("wire: send: %w", io.ErrShortWrite), false},
		{"real timeout", transportf("wire: call timed out after %v", time.Second), false},
		{"real lost connection", transportf("wire: connection lost: %w", io.EOF), false},
		{"real dial failure", transportf("wire: dial 10.0.0.1:1: %w", io.EOF), false},
		{"closed", ErrClosed, false},
		{"wrapped closed", fmt.Errorf("get: %w", ErrClosed), false},
		{"net error", &net.OpError{Op: "read", Err: io.EOF}, false},
	}
	for _, tc := range cases {
		if got := isAppError(tc.err); got != tc.app {
			t.Errorf("%s: isAppError(%v) = %v, want %v", tc.name, tc.err, got, tc.app)
		}
	}
}

func TestPoolKeepsConnOnAdversarialHandlerMessage(t *testing.T) {
	s := startServer(t)
	p := NewPool(time.Second)
	defer p.Close()
	before, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The handler error's text starts with a transport prefix; the pool
	// must still recognize it as an application error and keep the client.
	if _, err := p.Call(s.Addr(), failReq{Msg: "wire: send: spoofed"}, time.Second); err == nil {
		t.Fatal("expected handler error")
	}
	after, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("pool dropped a healthy connection on a spoofed handler message")
	}
}

// ---- regression: a failed mid-stream send poisons the client ----

// flakyConn wraps a net.Conn whose writes, once armed, write only a prefix
// of the buffer and fail — a short write that leaves the peer mid-message
// and the local gob encoder in an inconsistent state.
type flakyConn struct {
	net.Conn
	armed atomic.Bool
}

func (f *flakyConn) Write(b []byte) (int, error) {
	if f.armed.Load() {
		n := len(b) / 2
		_, _ = f.Conn.Write(b[:n])
		return n, io.ErrShortWrite
	}
	return f.Conn.Write(b)
}

// newTestClient is Dial over a caller-supplied connection.
func newTestClient(nc net.Conn) *Client {
	cl := &Client{c: newConn(nc), pending: make(map[uint64]chan *Envelope)}
	go cl.readLoop()
	return cl
}

func TestSendFailurePoisonsClient(t *testing.T) {
	s, release := startReleasableServer(t)
	defer close(release)
	nc, err := net.DialTimeout("tcp", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fc := &flakyConn{Conn: nc}
	cl := newTestClient(fc)
	defer cl.Close()

	// Healthy first call proves the wrapped transport works.
	if _, err := cl.Call(echoReq{N: 1}, time.Second); err != nil {
		t.Fatal(err)
	}

	// Park a call on the server so it is pending when the stream breaks.
	pending := make(chan error, 1)
	go func() {
		_, err := cl.Call(slowReq{Delay: 2 * time.Second}, 10*time.Second)
		pending <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow call reach the server

	fc.armed.Store(true)
	_, err = cl.Call(echoReq{N: 2}, time.Second)
	if err == nil {
		t.Fatal("call over a broken stream succeeded")
	}
	if isAppError(err) {
		t.Fatalf("send failure classified as application error: %v", err)
	}

	// The pending call must fail promptly — not hang for its full delay or
	// decode garbage from the corrupted stream.
	select {
	case err := <-pending:
		if err == nil {
			t.Fatal("pending call survived a poisoned stream")
		}
	case <-time.After(time.Second):
		t.Fatal("pending call hung after the stream broke")
	}

	// The client is permanently broken: later calls fail fast with
	// ErrClosed instead of reusing the corrupt encoder.
	if _, err := cl.Call(echoReq{N: 3}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on poisoned client: err = %v, want ErrClosed", err)
	}
}

func TestPoolRedialsAfterPoisonedClient(t *testing.T) {
	s := startServer(t)
	p := NewPool(time.Second)
	defer p.Close()
	cl, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl.fail(io.ErrShortWrite) // as a mid-stream send failure would

	// The first pooled call sees the poisoned client, classifies ErrClosed
	// as transport, and drops it; the retry dials fresh and succeeds.
	if _, err := p.Call(s.Addr(), echoReq{N: 1}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("poisoned pooled call: err = %v, want ErrClosed", err)
	}
	if _, err := p.Call(s.Addr(), echoReq{N: 2}, time.Second); err != nil {
		t.Fatalf("pool did not recover with a fresh dial: %v", err)
	}
}

// TestCallFailsFastAfterReadLoopDeath pins the poisoning contract of
// failAll. The peer half-closes the connection (FIN): the client's read
// loop exits — no reply can ever be delivered again — but the socket still
// accepts writes. A Call in that state must fail immediately with a
// transport error; before the fix its request buffered into the
// half-closed socket and the call sat out its entire deadline.
func TestCallFailsFastAfterReadLoopDeath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// FIN the write side, keep draining the read side: the client's
		// read loop dies while its writes keep succeeding.
		nc.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, nc)
		nc.Close()
	}()

	cl, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Wait for the read loop to observe the FIN.
	deadline := time.Now().Add(2 * time.Second)
	for cl.connErr() == ErrClosed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err = cl.Call(echoReq{N: 1}, 5*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call succeeded on a half-closed connection")
	}
	if !IsTransportError(err) {
		t.Fatalf("error not transport-classified: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("call took %v to fail; want fast failure, not a deadline wait", elapsed)
	}
}
