// Package wire is a minimal message-passing RPC layer over TCP used by the
// distributed RCMP runtime (internal/dmr). It carries gob-encoded request
// and reply bodies inside framed envelopes, multiplexes concurrent calls
// over one connection, and propagates application errors by value.
//
// A body that implements Bulk sends its payload as a raw bulk section
// after its envelope instead of inside the gob stream: the envelope
// carries the body's head (what SplitBulk returns) and the section's
// length, and the section's bytes follow it unencoded. The receiver checks
// the length, reads the section into one buffer of its own and hands that
// buffer to the head's JoinBulk, which rebuilds the body and may keep the
// buffer: nothing else ever touches it. So a record payload is written
// once by its sender and read once by its receiver, with no gob copy on
// either side. An envelope and its section go out as exactly one Write, so
// a transport that loses writes loses whole messages. A section that
// cannot be read or rebuilt is a transport error, and it poisons the
// connection like any other broken frame.
//
// It deliberately avoids net/rpc: the runtime needs (a) one bidirectional
// connection per peer pair with many in-flight calls, (b) interface-typed
// bodies dispatched by a single handler (the master and worker switch on
// message type), and (c) hard per-call deadlines so a dead peer surfaces as
// a timeout rather than a hung goroutine — the same property the paper's
// 30 s failure-detection timeout relies on.
package wire

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"
)

// Envelope frames one message. Exactly one of Body or Err is meaningful in
// a reply; requests carry Body. The Body is interface-typed: concrete
// message types must be registered with gob (see Register). Bulk is the
// length of the raw section that follows the envelope on the wire; it is
// set by the sender for a Bulk body and is 0 otherwise.
type Envelope struct {
	ID    uint64
	Reply bool
	Err   string
	Body  any
	Bulk  int
}

// Bulk is implemented by a message body whose payload crosses the
// connection as a raw section after its envelope. The head SplitBulk
// returns is gob-encoded in the body's place (register its type); it must
// implement BulkHead so the receiver can rebuild the body. AppendBulk must
// append exactly size bytes.
type Bulk interface {
	SplitBulk() (head any, size int)
	AppendBulk(dst []byte) []byte
}

// BulkHead is implemented by the head of a Bulk body. JoinBulk returns the
// body rebuilt from the head and the section it was sent with. The section
// is a buffer the receiver allocated for this message alone, so the body
// may keep windows of it; an error breaks the connection.
type BulkHead interface {
	JoinBulk(section []byte) (any, error)
}

// maxBulk bounds the section length an envelope may claim, and bulkChunk
// is how much of a longer claim is allocated before bytes arrive to back
// it: past that, readBulk at most doubles its buffer once bytes fill it,
// never sizing it by the claim alone, so a corrupt or hostile length costs
// at most a chunk, or twice what actually arrived.
const (
	maxBulk   = 1 << 30
	bulkChunk = 1 << 20
)

// readBulk reads an n-byte section from r into a buffer of its own.
func readBulk(r io.Reader, n int) ([]byte, error) {
	if n < 0 || n > maxBulk {
		return nil, fmt.Errorf("wire: bulk section of %d bytes", n)
	}
	buf := make([]byte, 0, min(n, bulkChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, fmt.Errorf("wire: bulk section: %d of %d bytes: %w", len(buf), n, err)
		}
	}
	return buf, nil
}

// Register makes a concrete message type transmissible in an Envelope body.
// Call it from an init function in the package defining the messages.
func Register(v any) { gob.Register(v) }

// Handler processes one request body and returns a reply body or an error.
// Handlers run on their own goroutine per call and must be safe for
// concurrent use.
type Handler func(from net.Addr, req any) (any, error)

// ErrClosed is returned by calls on a closed client or server.
var ErrClosed = errors.New("wire: closed")

// transportError marks an error as raised by the transport layer itself —
// a failed dial, send, lost connection or call timeout — as opposed to an
// error a remote handler returned by value. Pool.Call drops connections
// only on transport errors, and the distinction must be carried in the
// type: classifying by message text would let a handler whose error
// happens to start with "wire: send" masquerade as a transport failure
// and cost a healthy connection. Check with errors.As; Unwrap exposes the
// underlying cause for errors.Is.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// transportf builds a transport-classified error.
func transportf(format string, args ...any) error {
	return &transportError{err: fmt.Errorf(format, args...)}
}

// conn wraps a net.Conn with gob codecs and a write lock. Gob streams are
// stateful (type definitions are sent once), so each direction must be
// written by one encoder guarded against interleaving. The encoder writes
// into out, which send hands to the connection in one Write.
type conn struct {
	c   net.Conn
	enc *gob.Encoder
	out sendBuffer
	in  *reader
	wmu sync.Mutex
}

// sendBuffer is the io.Writer the gob encoder appends an envelope to.
type sendBuffer struct{ b []byte }

func (s *sendBuffer) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// keepSendBuffer bounds the send buffer a connection keeps between
// messages, so one large message does not pin its size for the life of
// an idle connection.
const keepSendBuffer = 256 << 10

// sendHeadroom is what send reserves for a Bulk body's envelope on top of
// its section; a first envelope that also defines its types may outgrow it.
const sendHeadroom = 512

func newConn(c net.Conn) *conn {
	cn := &conn{c: c, in: newReader(c)}
	cn.enc = gob.NewEncoder(&cn.out)
	return cn
}

// send writes one envelope, and the section of a Bulk body, in one Write.
// A body that fails to encode still flushes the type definitions gob has
// already recorded as sent, so the stream stays in step with the encoder.
func (c *conn) send(e *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var bulk Bulk
	c.out.b = c.out.b[:0]
	if b, ok := e.Body.(Bulk); ok {
		env := *e
		env.Body, env.Bulk = b.SplitBulk()
		bulk, e = b, &env
		// Room for the section and a small head: one allocation at most.
		c.out.b = slices.Grow(c.out.b, env.Bulk+sendHeadroom)
	}
	err := c.enc.Encode(e)
	if err == nil && bulk != nil {
		start := len(c.out.b)
		c.out.b = bulk.AppendBulk(c.out.b)
		if n := len(c.out.b) - start; n != e.Bulk {
			// The encoder counts this envelope's type definitions as sent,
			// so the stream cannot go on without them.
			c.c.Close()
			return fmt.Errorf("wire: %T appended a %d-byte section, announced %d", bulk, n, e.Bulk)
		}
	}
	if len(c.out.b) > 0 {
		if _, werr := c.c.Write(c.out.b); err == nil {
			err = werr
		}
	}
	if cap(c.out.b) > keepSendBuffer {
		c.out.b = nil
	}
	return err
}

// reader is the receive half of a connection: gob envelopes, each followed
// by its bulk section, if any.
type reader struct {
	r   *bufio.Reader
	dec *gob.Decoder
}

func newReader(r io.Reader) *reader {
	br := bufio.NewReader(r)
	return &reader{r: br, dec: gob.NewDecoder(br)}
}

// read decodes the next envelope and rebuilds a Bulk body from its
// section. The section's length is checked before any buffer is sized
// from it; an envelope that claims a section its body cannot take, a
// short section and a section its head rejects are all errors.
func (rd *reader) read(env *Envelope) error {
	if err := rd.dec.Decode(env); err != nil {
		return err
	}
	if env.Bulk == 0 {
		return nil
	}
	head, ok := env.Body.(BulkHead)
	if !ok {
		return fmt.Errorf("wire: %T takes no bulk section, envelope claims %d bytes", env.Body, env.Bulk)
	}
	section, err := readBulk(rd.r, env.Bulk)
	if err != nil {
		return err
	}
	body, err := head.JoinBulk(section)
	if err != nil {
		return fmt.Errorf("wire: bulk section of %T: %w", env.Body, err)
	}
	env.Body = body
	return nil
}

// Server accepts connections and dispatches request envelopes to a Handler.
type Server struct {
	ln      net.Listener
	addr    string
	handler Handler

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving on ln immediately. Close the server to stop.
func NewServer(ln net.Listener, h Handler) *Server {
	s := &Server{ln: ln, addr: ln.Addr().String(), handler: h, conns: make(map[*conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address, formatted once at start.
func (s *Server) Addr() string { return s.addr }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := newConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.c.Close()
	}()
	for {
		var env Envelope
		if err := c.in.read(&env); err != nil {
			return
		}
		if env.Reply {
			continue // a server connection never issues requests
		}
		// Handler goroutines join the server WaitGroup so Close keeps its
		// drain contract: without the Add an in-flight handler outlives
		// Close and can touch handler state the caller is tearing down.
		// Adding here is safe — this serveConn goroutine holds a WaitGroup
		// count of its own, so the counter cannot reach zero concurrently.
		s.wg.Add(1)
		go func(env Envelope) {
			defer s.wg.Done()
			reply := Envelope{ID: env.ID, Reply: true}
			body, err := s.handler(c.c.RemoteAddr(), env.Body)
			if err != nil {
				reply.Err = err.Error()
			} else {
				reply.Body = body
			}
			_ = c.send(&reply) // peer gone: its Call times out on its own
		}(env)
	}
}

// Close stops accepting, severs every live connection, and waits for the
// serving goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	s.wg.Wait()
	return err
}

// Client issues concurrent calls to one server over a single connection.
type Client struct {
	c *conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Envelope
	closed  bool
	readErr error
}

// Dial connects to addr within timeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, transportf("wire: dial %s: %w", addr, err)
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection in a Client. The caller hands
// over ownership; closing the client closes the connection.
func NewClient(nc net.Conn) *Client {
	cl := &Client{c: newConn(nc), pending: make(map[uint64]chan *Envelope)}
	go cl.readLoop()
	return cl
}

func (cl *Client) readLoop() {
	for {
		var env Envelope
		if err := cl.c.in.read(&env); err != nil {
			cl.failAll(err)
			return
		}
		cl.mu.Lock()
		ch := cl.pending[env.ID]
		delete(cl.pending, env.ID)
		cl.mu.Unlock()
		if ch != nil {
			ch <- &env
		}
	}
}

// failAll wakes every pending call with the connection error and poisons
// the client: once the read loop is gone nothing can ever deliver a reply,
// so a later Call that merely buffered its request into the half-closed
// socket would otherwise sit out its whole deadline instead of failing
// fast.
func (cl *Client) failAll(err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.readErr == nil {
		cl.readErr = err
	}
	cl.closed = true
	for id, ch := range cl.pending {
		delete(cl.pending, id)
		close(ch)
	}
}

// Call sends req and waits for the matching reply or the deadline. A nil
// error means the handler succeeded and resp is its reply body.
func (cl *Client) Call(req any, timeout time.Duration) (any, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClosed
	}
	cl.nextID++
	id := cl.nextID
	ch := make(chan *Envelope, 1)
	cl.pending[id] = ch
	cl.mu.Unlock()

	if err := cl.c.send(&Envelope{ID: id, Body: req}); err != nil {
		cl.mu.Lock()
		delete(cl.pending, id)
		cl.mu.Unlock()
		// A failed send leaves the shared gob encoder in an unknown state
		// (type definitions and values interleave on one stateful stream),
		// so the connection can never be trusted again: a later Call could
		// hang or decode garbage. Poison the client — pending calls fail,
		// subsequent calls get ErrClosed — so a Pool re-dials fresh.
		cl.fail(err)
		return nil, transportf("wire: send: %w", err)
	}

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case env, ok := <-ch:
		if !ok {
			return nil, transportf("wire: connection lost: %w", cl.connErr())
		}
		if env.Err != "" {
			return nil, errors.New(env.Err)
		}
		return env.Body, nil
	case <-t.C:
		cl.mu.Lock()
		delete(cl.pending, id)
		cl.mu.Unlock()
		return nil, transportf("wire: call timed out after %v", timeout)
	}
}

// fail marks the client permanently broken after a transport fault: new
// calls return ErrClosed immediately, and closing the underlying
// connection makes the read loop exit and fail every pending call. Safe
// to call multiple times.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if !cl.closed {
		cl.closed = true
		if cl.readErr == nil {
			cl.readErr = err
		}
	}
	cl.mu.Unlock()
	cl.c.c.Close()
}

func (cl *Client) connErr() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.readErr != nil {
		return cl.readErr
	}
	return ErrClosed
}

// Close severs the connection; pending calls fail.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cl.mu.Unlock()
	return cl.c.c.Close()
}

// RetryPolicy bounds a Pool's automatic re-attempts after transport
// failures. Retries apply ONLY to transport-classified errors (failed
// dials, lost connections, send faults, call timeouts) — an error a remote
// handler returned by value is the application's answer and is never
// retried. Each retry re-resolves the client, so a poisoned connection is
// replaced by a fresh dial. Backoff is exponential with full jitter:
// attempt k sleeps a uniformly random duration in
// (0, min(retryCap, retryBase<<k)].
//
// The zero value disables retries, preserving the historical single-shot
// behavior (and the byte-identical golden paths that depend on it).
type RetryPolicy struct {
	Max  int   // retries after the first attempt; 0 disables
	Seed int64 // jitter seed, for deterministic tests
}

// retryBase and retryCap are the first backoff bound and the backoff
// ceiling of every RetryPolicy.
const (
	retryBase = 2 * time.Millisecond
	retryCap  = 250 * time.Millisecond
)

// backoff returns the jittered sleep before retry attempt k (0-based).
func backoff(k int, rng *rand.Rand) time.Duration {
	d := retryBase
	for i := 0; i < k && d < retryCap; i++ {
		d *= 2
	}
	d = min(d, retryCap)
	return time.Duration(rng.Int63n(int64(d))) + 1
}

// PoolOptions configures the optional hardening layers of a Pool.
type PoolOptions struct {
	// Chaos, when non-nil, routes every dial through the fault injector.
	Chaos *Chaos
	// Self is this endpoint's chaos name (the "from" side of its links).
	Self string
	// Retry bounds automatic re-attempts on transport errors.
	Retry RetryPolicy
}

// Pool caches one Client per address, dialing lazily. Workers use it for
// shuffle fetches (every reducer talks to every mapper's node) and replica
// pushes; the master uses it for task dispatch.
type Pool struct {
	timeout time.Duration
	opts    PoolOptions

	mu      sync.Mutex
	clients map[string]*Client
	closed  bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewPool creates a pool whose dials use the given timeout.
func NewPool(dialTimeout time.Duration) *Pool {
	return NewPoolOpts(dialTimeout, PoolOptions{})
}

// NewPoolOpts creates a pool with chaos and retry options.
func NewPoolOpts(dialTimeout time.Duration, o PoolOptions) *Pool {
	return &Pool{
		timeout: dialTimeout,
		opts:    o,
		clients: make(map[string]*Client),
		rng:     rand.New(rand.NewSource(o.Retry.Seed)),
	}
}

// Get returns the cached client for addr, dialing if needed.
func (p *Pool) Get(addr string) (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if cl, ok := p.clients[addr]; ok {
		p.mu.Unlock()
		return cl, nil
	}
	p.mu.Unlock()

	cl, err := p.dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		cl.Close()
		return nil, ErrClosed
	}
	if old, ok := p.clients[addr]; ok { // lost a race; keep the first
		cl.Close()
		return old, nil
	}
	p.clients[addr] = cl
	return cl, nil
}

// dial is Dial through the pool's optional chaos transport: with a Chaos
// set the connection is dialed via the fault injector under the pool's
// Self endpoint name; otherwise it is a plain Dial.
func (p *Pool) dial(addr string) (*Client, error) {
	if p.opts.Chaos == nil {
		return Dial(addr, p.timeout)
	}
	nc, err := p.opts.Chaos.Dial(p.opts.Self, addr, p.timeout)
	if err != nil {
		return nil, transportf("wire: dial %s: %w", addr, err)
	}
	return NewClient(nc), nil
}

// Drop discards the cached client for addr (e.g. after a call error), so the
// next Get re-dials.
func (p *Pool) Drop(addr string) {
	p.mu.Lock()
	cl := p.clients[addr]
	delete(p.clients, addr)
	p.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// Call is Get followed by Client.Call, dropping the connection on transport
// errors so a recovered peer gets a fresh dial. With a RetryPolicy set it
// re-attempts transport failures with jittered exponential backoff — each
// attempt on a freshly resolved client — and never retries an error the
// remote handler returned by value.
func (p *Pool) Call(addr string, req any, timeout time.Duration) (any, error) {
	resp, err := p.callOnce(addr, req, timeout)
	max := p.opts.Retry.Max
	for attempt := 0; attempt < max && err != nil && IsTransportError(err); attempt++ {
		if p.closedNow() {
			break // pool torn down: ErrClosed is final, not a flaky link
		}
		p.sleepBackoff(attempt)
		resp, err = p.callOnce(addr, req, timeout)
	}
	return resp, err
}

func (p *Pool) callOnce(addr string, req any, timeout time.Duration) (any, error) {
	cl, err := p.Get(addr)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Call(req, timeout)
	if err != nil && !isAppError(err) {
		p.Drop(addr)
	}
	return resp, err
}

func (p *Pool) closedNow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// sleepBackoff sleeps the jittered exponential backoff for retry `attempt`.
// The jitter PRNG is shared by every concurrent Call, so it is drawn under
// its own lock (never held across the sleep).
func (p *Pool) sleepBackoff(attempt int) {
	p.rngMu.Lock()
	d := backoff(attempt, p.rng)
	p.rngMu.Unlock()
	time.Sleep(d)
}

// IsTransportError reports whether err was raised by the transport layer —
// a failed dial, send, lost connection or call timeout — rather than
// returned by a remote handler by value. Retry and re-dial decisions must
// use this classification, never message text: only transport failures mean
// the request may not have been the problem.
func IsTransportError(err error) bool {
	return err != nil && !isAppError(err)
}

// isAppError reports whether err came from the remote handler (the
// connection is healthy) rather than from the transport. The check is
// purely type-based: every transport failure this package raises is a
// *transportError (or ErrClosed / a net.Error), while handler errors
// arrive as plain text re-materialized with errors.New — whatever their
// message says, they can never satisfy errors.As below.
func isAppError(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return false
	}
	return !errors.Is(err, ErrClosed)
}

// Close severs every cached connection.
func (p *Pool) Close() {
	p.mu.Lock()
	clients := p.clients
	p.clients = map[string]*Client{}
	p.closed = true
	p.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
}
