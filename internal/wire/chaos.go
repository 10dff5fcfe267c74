package wire

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Chaos is an interposable fault injector below the RPC layer: it wraps
// net.Listener and dialed net.Conn values and perturbs the *writer* side of
// every wrapped connection with latency, whole-message drops, one-way
// partitions and mid-stream resets. Faults are injected per Write call —
// wire writes each envelope, with its type definitions and its bulk
// section, in one Write, so dropping a whole Write never misaligns the
// stream; the peer simply never sees that message and the caller's RPC
// times out (or, when the dropped message defined a type a later one uses,
// the connection surfaces a transport error and the Pool re-dials). Both
// outcomes are exactly what a lossy network produces.
//
// Partitions block writes until the partition heals, the way TCP
// retransmission hides a short outage: a partition shorter than the
// master's DetectionTimeout delays heartbeats without losing them, and a
// longer one starves the master into the paper's detection path.
//
// Every random decision (drop, jitter) comes from a per-connection PRNG
// seeded from Seed and the connection's (from, to, sequence) identity, so a
// fixed seed yields the same fault schedule on every run as long as
// connections are established in the same order per peer pair. The Trace
// hook observes each injected fault for determinism tests.
//
// Endpoints are named, not addressed: servers register their name when the
// listener is wrapped, dialers pass theirs to Dial and the dialer's
// ephemeral address is recorded so the accepting side can resolve who
// connected. An unresolvable peer is named "?" (wildcard rules still
// match it).
//
// The zero value with only a Seed is a transparent transport; all fields
// are read-only after the first connection.
type Chaos struct {
	Seed     int64
	Latency  time.Duration // fixed delay added to every delivered write
	Jitter   time.Duration // extra uniformly random delay in [0, Jitter]
	DropProb float64       // probability a write is silently discarded
	// ResetAfter, when positive, closes every connection after that many
	// writes from the wrapped side — a mid-stream RST.
	ResetAfter int
	// Trace, when non-nil, observes every injected fault. Called with an
	// internal lock held: keep it cheap and do not call back into Chaos.
	Trace func(TraceEvent)

	mu      sync.Mutex
	names   map[string]string // listen addr -> endpoint name
	dialers map[string]string // dialer's ephemeral local addr -> endpoint name
	blocked map[[2]string]bool
	connSeq map[[2]string]int
	inited  bool
}

// TraceEvent describes one injected fault.
type TraceEvent struct {
	Conn  string // "from->to#seq"
	Write int    // zero-based write index on that connection
	Op    string // "drop", "delay", "reset", "block"
	Delay time.Duration
}

// chaosPoll is how often a blocked writer re-checks the partition table.
const chaosPoll = 500 * time.Microsecond

func (c *Chaos) initLocked() {
	if c.inited {
		return
	}
	c.names = make(map[string]string)
	c.dialers = make(map[string]string)
	c.blocked = make(map[[2]string]bool)
	c.connSeq = make(map[[2]string]int)
	c.inited = true
}

// RegisterName maps a listen address to an endpoint name, so dialers of
// addr resolve it for partition matching. WrapListener calls it implicitly.
func (c *Chaos) RegisterName(addr, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	c.names[addr] = name
}

// Partition blocks the directed link from -> to ("*" = any) until Heal.
func (c *Chaos) Partition(from, to string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	c.blocked[[2]string{from, to}] = true
}

// Heal unblocks one directed link.
func (c *Chaos) Heal(from, to string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	delete(c.blocked, [2]string{from, to})
}

// HealAll unblocks every partitioned link.
func (c *Chaos) HealAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	for k := range c.blocked {
		delete(c.blocked, k)
	}
}

func (c *Chaos) isBlocked(from, to string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.inited || len(c.blocked) == 0 {
		return false
	}
	return c.blocked[[2]string{from, to}] ||
		c.blocked[[2]string{from, "*"}] ||
		c.blocked[[2]string{"*", to}] ||
		c.blocked[[2]string{"*", "*"}]
}

func (c *Chaos) nameOf(addr string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	if n, ok := c.names[addr]; ok {
		return n
	}
	return "?"
}

func (c *Chaos) dialerName(remote string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.initLocked()
	if n, ok := c.dialers[remote]; ok {
		return n
	}
	return "?"
}

func (c *Chaos) emit(ev TraceEvent) {
	c.mu.Lock()
	t := c.Trace
	if t != nil {
		t(ev)
	}
	c.mu.Unlock()
}

// wrap builds the chaos conn for one direction (the wrapping side's writes).
func (c *Chaos) wrap(nc net.Conn, from, to string) net.Conn {
	c.mu.Lock()
	c.initLocked()
	key := [2]string{from, to}
	seq := c.connSeq[key]
	c.connSeq[key] = seq + 1
	c.mu.Unlock()

	h := fnv.New64a()
	fmt.Fprintf(h, "%s->%s#%d", from, to, seq)
	return &chaosConn{
		Conn:  nc,
		chaos: c,
		label: fmt.Sprintf("%s->%s#%d", from, to, seq),
		from:  from,
		to:    to,
		rng:   rand.New(rand.NewSource(c.Seed ^ int64(h.Sum64()))),
		done:  make(chan struct{}),
	}
}

// Dial connects to addr within timeout, waiting out any partition of the
// (from, destination) link first — a dial during an outage behaves like a
// SYN that keeps being retransmitted until the link heals or the dial
// deadline expires.
func (c *Chaos) Dial(from, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	to := c.nameOf(addr)
	for c.isBlocked(from, to) {
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("wire: chaos: dial %s->%s: partitioned", from, to)
		}
		time.Sleep(chaosPoll)
	}
	d := time.Until(deadline)
	if d <= 0 {
		d = time.Millisecond
	}
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.initLocked()
	c.dialers[nc.LocalAddr().String()] = from
	c.mu.Unlock()
	return c.wrap(nc, from, to), nil
}

// WrapListener names the listener and wraps it so every accepted connection
// injects faults on the server's writes (replies), with the peer resolved
// from the dialer registry.
func (c *Chaos) WrapListener(ln net.Listener, name string) net.Listener {
	c.RegisterName(ln.Addr().String(), name)
	return &chaosListener{Listener: ln, chaos: c, name: name}
}

type chaosListener struct {
	net.Listener
	chaos *Chaos
	name  string
}

func (l *chaosListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// The kernel completes the handshake before Chaos.Dial returns, so an
	// accept can race the dialer recording its ephemeral address. Wait the
	// registration out briefly — an unresolved peer would get a
	// nondeterministic "?" identity and dodge its partitions.
	peer := l.chaos.dialerName(nc.RemoteAddr().String())
	for deadline := time.Now().Add(time.Second); peer == "?" && time.Now().Before(deadline); {
		time.Sleep(chaosPoll)
		peer = l.chaos.dialerName(nc.RemoteAddr().String())
	}
	return l.chaos.wrap(nc, l.name, peer), nil
}

// chaosConn perturbs the writes of one side of one connection. Reads pass
// through untouched: every fault is modeled at its writer. wire serializes
// writes per connection (the gob encoder lock), so writes, the write
// counter and the PRNG need no extra synchronization.
type chaosConn struct {
	net.Conn
	chaos  *Chaos
	label  string
	from   string
	to     string
	rng    *rand.Rand
	writes int

	closeOnce sync.Once
	done      chan struct{}
}

func (cc *chaosConn) Write(b []byte) (int, error) {
	w := cc.writes
	cc.writes++

	if ra := cc.chaos.ResetAfter; ra > 0 && w >= ra {
		cc.chaos.emit(TraceEvent{Conn: cc.label, Write: w, Op: "reset"})
		cc.Conn.Close()
		return 0, fmt.Errorf("wire: chaos: %s reset after %d writes", cc.label, ra)
	}

	if cc.chaos.isBlocked(cc.from, cc.to) {
		cc.chaos.emit(TraceEvent{Conn: cc.label, Write: w, Op: "block"})
		for cc.chaos.isBlocked(cc.from, cc.to) {
			select {
			case <-cc.done:
				return 0, fmt.Errorf("wire: chaos: %s closed while partitioned", cc.label)
			case <-time.After(chaosPoll):
			}
		}
	}

	if p := cc.chaos.DropProb; p > 0 && cc.rng.Float64() < p {
		cc.chaos.emit(TraceEvent{Conn: cc.label, Write: w, Op: "drop"})
		return len(b), nil
	}

	if cc.chaos.Latency > 0 || cc.chaos.Jitter > 0 {
		d := cc.chaos.Latency
		if j := cc.chaos.Jitter; j > 0 {
			d += time.Duration(cc.rng.Int63n(int64(j) + 1))
		}
		cc.chaos.emit(TraceEvent{Conn: cc.label, Write: w, Op: "delay", Delay: d})
		select {
		case <-cc.done:
			return 0, fmt.Errorf("wire: chaos: %s closed during delay", cc.label)
		case <-time.After(d):
		}
	}

	return cc.Conn.Write(b)
}

func (cc *chaosConn) Close() error {
	cc.closeOnce.Do(func() { close(cc.done) })
	return cc.Conn.Close()
}
