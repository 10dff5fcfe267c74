// Package flow models data transfers competing for shared resources.
//
// A Resource is anything with a finite byte rate: a disk, a NIC direction,
// or an oversubscribed core switch. A Flow is a transfer of a fixed number
// of bytes across an ordered set of resources (e.g. source disk -> source
// NIC -> core -> destination NIC -> destination disk). At any instant every
// active flow progresses at its max-min fair rate, computed by progressive
// water-filling. Whenever the set of active flows changes, accrued progress
// is banked and the structure (trunks, components, resource claims) is
// updated on the spot; the rates themselves, and the completion event, are
// then owed and recomputed once — on the instant's final structure — before
// the simulator's clock moves, however many flows the instant's events
// started (see "settling" below and in docs/flow.md).
//
// Rebalancing is incremental: the network partitions active flows into
// connected components of the flow/resource sharing graph and confines
// every recomputation to the component actually touched by a change, and a
// single simulator event — re-pointed once per instant — covers the
// network-wide earliest completion. Flows in untouched components keep
// their rates, which is sound because max-min allocations decompose across
// connected components. Progress accounting has two modes: strict (the
// default) banks and scans for completions globally, bit-identical to the
// historical global rebalance; class accounting (EnableClassAccounting)
// banks per component and per trunk and keeps completion candidates in
// heaps. See docs/flow.md for the algorithm and the determinism argument.
//
// Settling: a water-fill is a pure function of a component's structure and
// no simulated time passes inside an instant, so starts and removals only
// mark their component as owing a fill and the network as owing one
// completion reschedule; Network.settle pays both, from the simulator's
// des.BeforeNext hook and from complete, which reads rates and ETAs. The
// hook runs once per instant, not once per event: the settler lets the
// simulator fire a same-time event first whenever that event would also
// have fired first under eager recomputation (settler.SettleBefore).
// Two rules keep this bit-identical to recomputing after every operation:
// each owed point reserves the event sequence number the eager reschedule
// would have consumed there (the last one is applied), and a removal on a
// component that already owes a fill pays it first, because a removal lets
// the groups it does not dirty keep their previous rates.
//
// Transfers that share an identical resource path can be coalesced onto a
// Trunk: the water-filler then arbitrates the trunk as one unit while each
// member transfer keeps its own size, rate and completion. k members of a
// trunk behave exactly like k separate flows over the same path — same
// rates, same completion times — so coalescing changes simulation cost, not
// simulated behaviour. The shuffle layer uses this to keep the network's
// arbitration units proportional to communicating node pairs rather than
// reducer×node pairs.
//
// Resources support a concurrency penalty that shrinks effective capacity
// as the number of concurrent flows grows. This models the seek-bound
// behaviour of spinning disks under concurrent streams, which the RCMP
// paper identifies as a key source of both replication overhead (Section
// III) and recomputation hot-spots (Section IV-B2).
package flow

import (
	"fmt"
	"math"

	"rcmp/internal/des"
)

// Resource is a capacity-limited device shared by flows.
type Resource struct {
	Name     string
	Capacity float64 // bytes per second with a single streaming client
	// SeekPenalty shrinks effective capacity under concurrency:
	// effective = Capacity / (1 + min(SeekPenalty*(n-1), PenaltyCap)) for n
	// concurrent flows. Zero means the resource divides cleanly (e.g. a
	// network link).
	SeekPenalty float64
	// PenaltyCap bounds the total degradation: disk schedulers and large
	// sequential buffers keep heavily shared disks at a throughput floor
	// rather than degrading without limit. Zero means an uncapped penalty.
	PenaltyCap float64

	active int        // member transfers currently using this resource
	comp   *component // owning component while active > 0, else nil
	cindex int        // position in comp.resources
	users  []*Trunk   // trunks with live members that use this resource

	// Water-filling scratch, valid when gen matches the network's current
	// generation stamp. bfsGen marks the resource visited during component
	// traversal, so each user list is walked once per BFS regardless of how
	// many trunks share the resource.
	gen       uint64
	bfsGen    uint64
	remaining float64
	weight    float64
	count     int
}

// Effective returns the aggregate byte rate the resource can sustain when n
// flows use it concurrently.
func (r *Resource) Effective(n int) float64 {
	if n <= 0 {
		return r.Capacity
	}
	p := r.SeekPenalty * float64(n-1)
	if r.PenaltyCap > 0 && p > r.PenaltyCap {
		p = r.PenaltyCap
	}
	return r.Capacity / (1 + p)
}

// Active returns the number of flows currently using the resource.
func (r *Resource) Active() int { return r.active }

// ResetUsage clears the resource's live flow bookkeeping (active count,
// component membership, user list) so the resource can be reused in a
// fresh simulation run. Generation stamps are deliberately kept: the
// owning network's generation counter is monotonic across Network.Reset,
// so a stale stamp can never match a future traversal.
func (r *Resource) ResetUsage() {
	r.active = 0
	r.comp = nil
	for i := range r.users {
		r.users[i] = nil
	}
	r.users = r.users[:0]
}

// Use declares that a flow consumes Weight bytes of a resource per byte of
// flow progress. Weight > 1 models amplification (e.g. a local read-then-
// write on one disk has weight 2 on that disk).
type Use struct {
	R      *Resource
	Weight float64
}

// Trunk is a bundle of flows sharing one identical resource path. The
// water-filler treats the trunk as a single arbitration unit whose members
// all progress at the same per-member max-min rate; k members are exactly
// equivalent to k separate flows over the same uses. A trunk with no
// members is dormant and holds no resources; it can be reused indefinitely,
// so callers coalescing traffic (e.g. shuffle fetches between one node
// pair) keep one trunk per path and Start members on it as transfers come
// and go.
type Trunk struct {
	label   string
	net     *Network
	uses    []Use
	userIdx []int // position of this trunk in uses[i].R.users, while active
	members []*Flow
	comp    *component
	tindex  int // position in comp.trunks, while active

	frozen  bool   // water-filling scratch
	gen     uint64 // traversal stamp
	pooled  bool   // singleton trunk owned by the network's free list
	inClass bool   // registered in the network's rate-class index
	class   classKey

	// Class-accounting state (EnableClassAccounting): every member of a
	// trunk progresses at the same max-min rate, so the trunk carries the
	// shared rate and the integral of it (cum, bytes per member since
	// activation) instead of per-member rate/progress writes. A member's
	// progress is cum - joinCum, materialized only when it leaves; its
	// completion key size+joinCum is time-invariant, so a lazy min-heap
	// ordered by it yields the trunk's earliest completion in O(1) however
	// many members ride the trunk.
	rate float64
	cum  float64
	done []doneEnt
}

// doneEnt is one entry of a trunk's completion heap. Entries are removed
// lazily: epoch pairs the entry with one pooled incarnation of the flow,
// so an entry surviving its member (abort, recycling) is detected and
// discarded at pop time.
type doneEnt struct {
	key   float64 // f.size + f.joinCum: completes when trunk cum reaches it
	f     *Flow
	epoch uint64
}

// classKey is the resource-path signature of a rate class: the ordered
// resources and weights of a trunk's uses. Pooled flows whose paths hash
// to the same key are provably rate-equivalent (identical uses ⇒ identical
// max-min treatment), so the network multiplexes them onto one shared
// trunk — see the rate-class index on Network.
type classKey struct {
	n   int
	res [maxClassUses]*Resource
	wt  [maxClassUses]float64
}

// maxClassUses bounds the path length a rate class can describe; the
// cluster model's longest path (a remote transfer) has 5 uses. Longer
// paths fall back to a private trunk — correct, just not coalesced.
const maxClassUses = 5

// classKeyOf builds the signature of a resource path, reporting whether
// the path is classifiable.
func classKeyOf(uses []Use) (classKey, bool) {
	var k classKey
	if len(uses) > maxClassUses {
		return k, false
	}
	k.n = len(uses)
	for i, u := range uses {
		k.res[i] = u.R
		k.wt[i] = u.Weight
	}
	return k, true
}

// NewTrunk returns a dormant trunk over the given resource path. The
// per-use bookkeeping slice is allocated lazily on first activation, so
// trunks that never carry a sized member (e.g. a singleton wrapping a
// zero-size flow) stay a single small allocation.
func (n *Network) NewTrunk(label string, uses []Use) *Trunk {
	for _, u := range uses {
		if u.Weight <= 0 {
			panic(fmt.Sprintf("trunk %q: non-positive weight %v on %s", label, u.Weight, u.R.Name))
		}
	}
	return &Trunk{label: label, net: n, uses: uses}
}

// Label returns the trunk's display label.
func (t *Trunk) Label() string { return t.label }

// Members returns the number of in-flight flows multiplexed on the trunk.
func (t *Trunk) Members() int { return len(t.members) }

// Completion is the allocation-free completion callback: FlowDone is
// invoked (inside a simulator event) when the flow's last byte has
// arrived plus any extra latency. Implementations are long-lived model
// objects dispatching on their own phase state, so passing one to StartC
// does not allocate the way a capturing closure does.
type Completion interface {
	FlowDone(f *Flow)
}

// Flow is an in-progress transfer.
//
// Flows created by the pooled StartC path are recycled by the network the
// moment their FlowDone callback returns (or their Abort completes):
// the handle is single-use and must be dropped by then. Flows created by
// the closure-based Start remain owned by the caller indefinitely.
type Flow struct {
	Label    string
	size     float64
	done     float64
	rate     float64 // current bytes/sec, set by the water-filler
	tr       *Trunk  // owning trunk (nil for zero-size flows)
	net      *Network
	mindex   int // position in tr.members, -1 when inactive
	gindex   int // position in Network.flows, -1 when inactive
	finished bool
	pooled   bool // recycle into Network.freeFlows when done
	// joinCum is the owning trunk's cum at join time and epoch the pooled
	// incarnation counter — both class-accounting state, see Trunk.
	joinCum float64
	epoch   uint64
	onDone  func(*Flow)
	onDoneC Completion
	extra   des.Time // fixed latency added after the bytes finish
	// extraEv is the pending deferred-finish event while the flow sits in
	// its extra-latency window (or, for zero-size flows, its only event).
	// Abort cancels it so the completion callback never fires on an
	// aborted flow — with task pooling upstream, a stale deferred
	// completion would otherwise fire into recycled model state.
	extraEv *des.Event
	// pendingFinish marks a flow detached by the current complete() batch
	// whose finish has not run yet. A completion callback firing earlier
	// in the batch may Abort such a flow (e.g. a winning speculative task
	// killing its duplicate, both completing at the same instant); Abort
	// then marks it finished and the batch loop skips — and, for pooled
	// flows, recycles — it instead of firing a dead task's callback.
	pendingFinish bool
}

// Fire implements des.Timer: it finalizes the flow after its extra
// latency (or, for zero-size flows, after the fixed latency alone). Using
// the flow itself as the timer keeps deferred completion allocation-free.
func (f *Flow) Fire() {
	f.extraEv = nil
	f.net.finish(f)
}

// Size returns the total bytes of the flow.
func (f *Flow) Size() float64 { return f.size }

// Done returns the bytes transferred so far (valid after completion; during
// a run it is only current as of the component's last banking).
func (f *Flow) Done() float64 {
	if f.net != nil && f.net.classAcct && f.tr != nil && f.mindex >= 0 {
		if d := f.tr.cum - f.joinCum; d > f.done {
			if d > f.size {
				return f.size
			}
			return d
		}
	}
	return f.done
}

// component is one connected piece of the flow/resource sharing graph.
// Rates, banking and completion candidates are maintained per component;
// changes in one component never touch another.
type component struct {
	cindex    int // position in Network.comps
	trunks    []*Trunk
	resources []*Resource // resources with active > 0 used by these trunks
	lastBank  des.Time    // member progress is banked up to here
	nextAt    des.Time    // cached earliest completion among members
	next      *Flow       // member achieving nextAt, nil if none has rate > 0
	hindex    int         // slot in Network.compHeap, -1 when absent (class accounting)

	// Completion-batch scratch: affGen stamps membership in the current
	// batch's affected set (so dedup is O(1) per flow however many
	// components a batch spans) and the flags accumulate what refresh
	// needs to know per component.
	affGen      uint64
	affDirty    bool
	affMaySplit bool

	// owesFill: the structure changed since the last water-fill, so member
	// rates and the cached candidate are stale until Network.settle (or a
	// removal on this component) pays it. listed: the component sits in
	// Network.owing, so a fill paid early and owed again does not list it
	// twice.
	owesFill bool
	listed   bool
}

// bank accrues progress up to now at the current rates — class accounting
// only; strict mode banks globally (bankAll). The accrual is one addition
// per trunk (the shared-rate integral); members materialize their progress
// from it when they leave. The conversion rounds the product before the
// sum, so no compiler fuses them into one multiply-add (the Go spec
// allows it, and arm64 builds would).
func (c *component) bank(now des.Time) {
	dt := float64(now - c.lastBank)
	if dt > 0 {
		for _, t := range c.trunks {
			t.cum += float64(t.rate * dt)
		}
	}
	c.lastBank = now
}

// Network manages all active flows and keeps their rates max-min fair.
type Network struct {
	sim   *des.Simulator
	comps []*component
	// flows is the global in-flight list in start/swap-remove order. It
	// exists purely so simultaneous completions are finalized in the same
	// deterministic order as a global rebalance would produce; all rate and
	// banking work is per component.
	flows      []*Flow
	completion *des.Event // single event at the earliest completion network-wide
	nextFlow   *Flow      // flow the completion event targets
	gen        uint64
	// classAcct selects class-level accounting (see EnableClassAccounting):
	// per-component banking, per-trunk shared rates, O(1) trunk banking and
	// heap-backed completion candidates, so per-event cost depends on the
	// number of rate classes, not members. Off by default: strict mode
	// banks globally and rescans completions globally so float accumulation
	// chunks and event times keep the historical global rebalance's
	// rounding behaviour (see docs/flow.md for the exact contract and its
	// limits). Rates and completion times are mathematically identical in
	// both modes but accumulate in different floating-point chunks
	// (closed-form drains); the scaling tier runs on class accounting.
	classAcct  bool
	lastUpdate des.Time // strict mode: progress banked up to here, globally

	// Reused scratch to keep the hot path allocation-free.
	scratchDirty  []*Resource
	scratchDone   []*Flow
	scratchTrunks []*Trunk
	scratchBounds []int
	scratchComps  []*component

	// Free lists for the pooled StartC path: flows recycle when their
	// completion callback returns, singleton trunks when their sole member
	// leaves. Survives Reset, so a reused network schedules its steady
	// state out of recycled memory.
	freeFlows  []*Flow
	freeTrunks []*Trunk
	freeComps  []*component

	// classes is the rate-class index: one entry per distinct resource-path
	// signature with live pooled flows, pointing at the shared trunk that
	// carries them. A class forms when the first flow of a signature starts
	// and dissolves when its last member leaves (deactivateTrunk), so a
	// join or leave touches exactly its own class. Trunks with identical
	// uses are arbitration-equivalent by the trunk contract (k members ≡ k
	// separate flows), which is what makes the coalescing behaviorally
	// invisible — the golden-digest suite pins this byte for byte.
	classes map[classKey]*Trunk

	// compHeap is the class-accounting completion index: components with a
	// live candidate, keyed by their cached nextAt, so scheduling reads
	// the network-wide earliest completion in O(1) and an event touching
	// one component costs O(log components) to re-key — the last
	// per-event cost that would otherwise scan every component.
	compHeap []*component

	compTimer completionTimer

	// Settling state. owing lists the components that may owe a water-fill
	// (each at most once, see component.listed); owesSched says the
	// completion event must be re-pointed, under schedSeq — the sequence
	// number reserved at the last owed point, i.e. the one the reschedule
	// would have consumed had it run there. registered is true while
	// settler is queued with the simulator.
	owing      []*component
	owesSched  bool
	schedSeq   uint64
	registered bool
	settler    settler
	// fills and scheds count water-fills and completion reschedules, for
	// the tests that pin the once-per-instant property.
	fills, scheds uint64

	// Completed counts flows that have finished, for diagnostics.
	Completed uint64
}

// completionTimer fires the network's single completion event without the
// method-value closure that n.complete as a callback would allocate.
type completionTimer struct{ n *Network }

func (ct *completionTimer) Fire() { ct.n.complete() }

// settler is the network's des.Settler: the simulator runs it once after
// the network registered an owed recomputation, before the clock moves or
// the queue runs dry, and before any same-time event SettleBefore names.
type settler struct{ n *Network }

func (s *settler) Settle() {
	s.n.registered = false
	s.n.settle()
}

// SettleBefore answers "before" for the two kinds of same-time event that
// could tell a deferred settle from an eager one: the network's stale
// completion event, which settle cancels, and, while flows are active, any
// event ordered after schedSeq, which the owed completion (due at now or
// later, under that number) could precede. Any other event would also have
// fired first had every operation settled at once, and its handler
// observes the same state: banking within the instant accrues nothing, the
// completion batch settles on entry, Abort pays an owed fill before
// detaching (see the package comment), and rates are read after a settle.
func (s *settler) SettleBefore(next *des.Event) bool {
	n := s.n
	return next == n.completion || (len(n.flows) > 0 && next.Seq() > n.schedSeq)
}

// NewNetwork returns an empty network bound to the simulator clock.
func NewNetwork(sim *des.Simulator) *Network {
	n := &Network{sim: sim}
	n.compTimer.n = n
	n.settler.n = n
	return n
}

// Reset returns the network to its initial state while keeping the flow
// and trunk free lists and the internal scratch buffers, so a reused
// network behaves exactly like a fresh one but runs allocation-free from
// the first flow. The caller must reset the bound simulator (which owns
// the completion event) and every Resource the network has touched; any
// still-active flows are dropped without completing.
func (n *Network) Reset() {
	for i, c := range n.comps {
		c.next = nil
		n.freeComps = append(n.freeComps, c)
		n.comps[i] = nil
	}
	n.comps = n.comps[:0]
	clearPointers(n.flows)
	n.flows = n.flows[:0]
	clear(n.classes)
	clearPointers(n.compHeap)
	n.compHeap = n.compHeap[:0]
	n.completion = nil
	n.nextFlow = nil
	for i, c := range n.owing {
		c.owesFill, c.listed = false, false
		n.owing[i] = nil
	}
	n.owing = n.owing[:0]
	n.owesSched = false
	n.registered = false
	n.classAcct = false
	n.lastUpdate = 0
	n.Completed = 0
	// n.gen keeps counting: stale generation stamps on resources and
	// trunks can then never collide with a future stamp.
}

func clearPointers[T any](s []*T) {
	for i := range s {
		s[i] = nil
	}
}

// EnableClassAccounting switches the network to class-level accounting:
// progress is banked per component, only when that component changes, as
// one per-trunk shared-rate integral, and completion candidates sit in
// heaps. A trunk's members provably share one max-min rate, so their
// relative completion order is fixed at join time (by joined-progress +
// size); the heaps exploit that to keep every per-event cost proportional
// to the number of rate classes instead of the number of in-flight
// transfers. Results are mathematically the
// strict-mode ones, but drains and progress accumulate in closed form
// rather than member at a time, so timestamps can drift by ulps relative
// to a strict-mode run, which is why the aggregated scaling tier (the only
// in-tree user) pins its own golden digest on this mode. Must be called
// before the first flow starts; Reset clears it.
func (n *Network) EnableClassAccounting() {
	if len(n.flows) > 0 {
		panic("flow: EnableClassAccounting after flows started")
	}
	n.classAcct = true
}

// bankAll banks progress for every active flow up to now (strict mode),
// with the same per-flow arithmetic and chunk boundaries as the historical
// global rebalance, and, as bank does, the product rounded before the sum.
func (n *Network) bankAll(now des.Time) {
	dt := float64(now - n.lastUpdate)
	if dt > 0 {
		for _, f := range n.flows {
			f.done += float64(f.rate * dt)
			if f.done > f.size {
				f.done = f.size
			}
		}
	}
	n.lastUpdate = now
}

// bankFor banks whatever the current mode requires before c changes.
func (n *Network) bankFor(c *component, now des.Time) {
	if n.classAcct {
		c.bank(now)
	} else {
		n.bankAll(now)
	}
}

func (n *Network) nextGen() uint64 {
	n.gen++
	return n.gen
}

// Start begins a transfer of size bytes across the given resource uses as
// the sole member of a fresh trunk. onDone, if non-nil, fires (inside a
// simulator event) when the last byte arrives plus extraLatency. A
// zero-size flow completes after extraLatency. The returned handle stays
// valid indefinitely (the caller owns the flow); hot model code should
// prefer the pooled StartC.
func (n *Network) Start(label string, size float64, uses []Use, extraLatency des.Time, onDone func(*Flow)) *Flow {
	return n.NewTrunk(label, uses).Start(label, size, extraLatency, onDone)
}

// StartC is the pooled, allocation-free form of Start: the flow and its
// singleton trunk come from the network's free lists, uses is copied (the
// caller may reuse its backing array immediately), and both objects are
// recycled when c.FlowDone returns or an Abort completes — the returned
// handle must be dropped by then.
func (n *Network) StartC(label string, size float64, uses []Use, extraLatency des.Time, c Completion) *Flow {
	if size == 0 {
		// Nothing to transfer; no trunk needed at all.
		f := n.allocFlow(label, 0, nil, extraLatency, c)
		f.extraEv = n.sim.AfterTimer(extraLatency, f)
		return f
	}
	t := n.classTrunk(label, uses)
	return n.startFlow(t, n.allocFlow(label, size, t, extraLatency, c))
}

// classTrunk returns the shared trunk of the rate class the path belongs
// to, registering a fresh pooled trunk as the class representative when
// the class has no live members. Unclassifiable paths get a private
// pooled trunk, exactly like the pre-class StartC.
func (n *Network) classTrunk(label string, uses []Use) *Trunk {
	key, ok := classKeyOf(uses)
	if !ok {
		return n.allocTrunk(label, uses)
	}
	if t := n.classes[key]; t != nil {
		return t
	}
	t := n.allocTrunk(label, uses)
	t.class = key
	t.inClass = true
	if n.classes == nil {
		n.classes = make(map[classKey]*Trunk)
	}
	n.classes[key] = t
	return t
}

// StartC begins a pooled transfer as a member of the trunk: the flow
// comes from the network's free list and is recycled when c.FlowDone
// returns (or an Abort completes), so the returned handle must be dropped
// by then. The trunk itself stays owned by the caller.
func (t *Trunk) StartC(label string, size float64, extraLatency des.Time, c Completion) *Flow {
	n := t.net
	f := n.allocFlow(label, size, t, extraLatency, c)
	if size == 0 {
		f.tr = nil
		f.extraEv = n.sim.AfterTimer(extraLatency, f)
		return f
	}
	return n.startFlow(t, f)
}

// Start begins a transfer of size bytes as a member of the trunk. onDone,
// if non-nil, fires (inside a simulator event) when the last byte arrives
// plus extraLatency. A zero-size flow completes after extraLatency without
// joining the trunk. The caller owns the returned flow.
func (t *Trunk) Start(label string, size float64, extraLatency des.Time, onDone func(*Flow)) *Flow {
	n := t.net
	if size < 0 {
		panic(fmt.Sprintf("flow: negative size %v", size))
	}
	f := &Flow{
		Label:  label,
		size:   size,
		tr:     t,
		net:    n,
		mindex: -1,
		gindex: -1,
		onDone: onDone,
		extra:  extraLatency,
	}
	if size == 0 {
		// Nothing to transfer; complete after the fixed latency without
		// occupying any resource.
		f.tr = nil
		f.extraEv = n.sim.AfterTimer(extraLatency, f)
		return f
	}
	return n.startFlow(t, f)
}

// allocFlow pops a recycled flow (or makes one) and initializes it for the
// pooled lifecycle.
func (n *Network) allocFlow(label string, size float64, t *Trunk, extra des.Time, c Completion) *Flow {
	if size < 0 {
		panic(fmt.Sprintf("flow: negative size %v", size))
	}
	var f *Flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &Flow{}
	}
	f.Label = label
	f.size = size
	f.tr = t
	f.net = n
	f.mindex = -1
	f.gindex = -1
	f.onDoneC = c
	f.extra = extra
	f.pooled = true
	return f
}

// recycleFlow zeroes a pooled flow and returns it to the free list. The
// epoch survives (incremented): it is what lets the class-accounting
// completion heaps detect stale entries pointing at a recycled struct.
func (n *Network) recycleFlow(f *Flow) {
	epoch := f.epoch + 1
	*f = Flow{}
	f.epoch = epoch
	n.freeFlows = append(n.freeFlows, f)
}

// allocTrunk pops a recycled singleton trunk (or makes one) and points it
// at a private copy of uses.
func (n *Network) allocTrunk(label string, uses []Use) *Trunk {
	for _, u := range uses {
		if u.Weight <= 0 {
			panic(fmt.Sprintf("trunk %q: non-positive weight %v on %s", label, u.Weight, u.R.Name))
		}
	}
	var t *Trunk
	if k := len(n.freeTrunks); k > 0 {
		t = n.freeTrunks[k-1]
		n.freeTrunks[k-1] = nil
		n.freeTrunks = n.freeTrunks[:k-1]
	} else {
		t = &Trunk{}
	}
	t.label = label
	t.net = n
	t.uses = append(t.uses[:0], uses...)
	t.pooled = true
	return t
}

// startFlow attaches an initialized flow to its trunk's component and claims
// resources; the re-fill of the component's rates and the completion
// reschedule are owed to settle — the shared tail of every Start variant.
func (n *Network) startFlow(t *Trunk, f *Flow) *Flow {
	now := n.sim.Now()
	c := t.comp
	if !n.classAcct {
		n.bankAll(now)
	}
	if c == nil {
		c = n.placeTrunk(t, now)
	} else if n.classAcct {
		c.bank(now)
	}
	f.mindex = len(t.members)
	t.members = append(t.members, f)
	if n.classAcct {
		// The component is banked to now, so the trunk's integral is the
		// member's zero point and its completion key is fixed for life.
		f.joinCum = t.cum
		t.pushDone(doneEnt{key: t.cum + f.size, f: f, epoch: f.epoch})
	}
	f.gindex = len(n.flows)
	n.flows = append(n.flows, f)
	for _, u := range t.uses {
		u.R.active++
	}
	n.oweFill(c)
	n.oweSchedule()
	return f
}

// oweFill marks c's rates stale: its structure changed, and settle (or a
// removal on c) re-fills it.
func (n *Network) oweFill(c *component) {
	c.owesFill = true
	if !c.listed {
		c.listed = true
		n.owing = append(n.owing, c)
	}
	n.register()
}

// oweSchedule marks the completion event stale and reserves, at this exact
// point of the handler, the sequence number the eager reschedule consumed
// here — so the event settle schedules ties against same-time timers
// precisely as before. An empty network needs no event, hence no number.
func (n *Network) oweSchedule() {
	n.owesSched = true
	if len(n.flows) > 0 {
		n.schedSeq = n.sim.ReserveSeq()
	}
	n.register()
}

func (n *Network) register() {
	if !n.registered {
		n.registered = true
		n.sim.BeforeNext(&n.settler)
	}
}

// settle pays what the operations since the last settle owe: one water-fill
// per component whose structure changed, on its final structure, then one
// completion reschedule. It runs before the simulator's clock moves (every
// owing component was banked to now by the operation that marked it),
// before any event that could tell (settler.SettleBefore) and before any
// read of a rate or an ETA. Settling more often than necessary is
// harmless — settling after every operation is exactly the eager
// recomputation.
func (n *Network) settle() {
	now := n.sim.Now()
	for i, c := range n.owing {
		n.owing[i] = nil
		c.listed = false
		if c.owesFill {
			n.waterfill(c, now)
		}
	}
	n.owing = n.owing[:0]
	if n.owesSched {
		n.owesSched = false
		n.scheduleCompletion()
	}
}

// pushDone inserts into the trunk's completion min-heap (keyed by the
// time-invariant completion key).
func (t *Trunk) pushDone(e doneEnt) {
	t.done = append(t.done, e)
	i := len(t.done) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.done[p].key <= t.done[i].key {
			break
		}
		t.done[p], t.done[i] = t.done[i], t.done[p]
		i = p
	}
}

// popDone removes the heap root.
func (t *Trunk) popDone() {
	last := len(t.done) - 1
	t.done[0] = t.done[last]
	t.done[last] = doneEnt{}
	t.done = t.done[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(t.done) && t.done[l].key < t.done[small].key {
			small = l
		}
		if r < len(t.done) && t.done[r].key < t.done[small].key {
			small = r
		}
		if small == i {
			return
		}
		t.done[i], t.done[small] = t.done[small], t.done[i]
		i = small
	}
}

// validRoot discards stale heap entries (members that left, pooled flows
// recycled into new lives) and returns the live root, or nil.
func (t *Trunk) validRoot() *doneEnt {
	for len(t.done) > 0 {
		e := &t.done[0]
		if e.f.tr == t && e.f.mindex >= 0 && e.f.epoch == e.epoch {
			return e
		}
		t.popDone()
	}
	return nil
}

// placeTrunk attaches a dormant trunk to the component its resources imply,
// merging components the trunk bridges, or creating a fresh one. Progress
// of every involved component is banked to now first.
func (n *Network) placeTrunk(t *Trunk, now des.Time) *component {
	// Collect the distinct components already owning the trunk's resources.
	var found [8]*component
	comps := found[:0]
	for _, u := range t.uses {
		rc := u.R.comp
		if rc == nil {
			continue
		}
		dup := false
		for _, c := range comps {
			if c == rc {
				dup = true
				break
			}
		}
		if !dup {
			comps = append(comps, rc)
		}
	}
	var c *component
	if len(comps) == 0 {
		c = n.allocComp(now)
	} else {
		// The largest component absorbs the rest: the trunk bridges them, so
		// after the merge the union is connected.
		c = comps[0]
		for _, o := range comps[1:] {
			if len(o.trunks) > len(c.trunks) {
				c = o
			}
		}
		if n.classAcct {
			c.bank(now)
		}
		for _, o := range comps {
			if o == c {
				continue
			}
			if n.classAcct {
				o.bank(now)
			}
			for _, ot := range o.trunks {
				ot.comp = c
				ot.tindex = len(c.trunks)
				c.trunks = append(c.trunks, ot)
			}
			for _, r := range o.resources {
				r.comp = c
				r.cindex = len(c.resources)
				c.resources = append(c.resources, r)
			}
			n.removeComp(o)
		}
	}
	t.comp = c
	t.tindex = len(c.trunks)
	t.cum = 0
	t.rate = 0
	c.trunks = append(c.trunks, t)
	if cap(t.userIdx) >= len(t.uses) {
		t.userIdx = t.userIdx[:len(t.uses)]
	} else {
		t.userIdx = make([]int, len(t.uses))
	}
	for i, u := range t.uses {
		r := u.R
		if r.comp == nil {
			r.comp = c
			r.cindex = len(c.resources)
			c.resources = append(c.resources, r)
		}
		t.userIdx[i] = len(r.users)
		r.users = append(r.users, t)
	}
	return c
}

// allocComp pops a recycled component (or makes one), appends it to the
// component list and returns it. Recycled components keep their trunk and
// resource slice capacities — components churn once per singleton-flow
// placement, so this is one of the hottest allocation sites in the
// simulator.
func (n *Network) allocComp(now des.Time) *component {
	var c *component
	if k := len(n.freeComps); k > 0 {
		c = n.freeComps[k-1]
		n.freeComps[k-1] = nil
		n.freeComps = n.freeComps[:k-1]
		clearPointers(c.trunks)
		c.trunks = c.trunks[:0]
		clearPointers(c.resources)
		c.resources = c.resources[:0]
		c.next = nil
		c.nextAt = 0
	} else {
		c = &component{}
	}
	c.cindex = len(n.comps)
	c.lastBank = now
	c.hindex = -1
	n.comps = append(n.comps, c)
	return c
}

func (n *Network) removeComp(c *component) {
	n.compHeapRemove(c)
	last := len(n.comps) - 1
	moved := n.comps[last]
	n.comps[c.cindex] = moved
	moved.cindex = c.cindex
	n.comps[last] = nil
	n.comps = n.comps[:last]
	c.next = nil
	c.owesFill = false
	n.freeComps = append(n.freeComps, c)
}

// deactivateTrunk detaches a trunk whose last member left from its
// component and from its resources' user lists. Pooled singleton trunks
// (the StartC path) go back to the free list here — their sole member is
// gone, so no caller can hold a live reference.
func (n *Network) deactivateTrunk(t *Trunk) {
	c := t.comp
	last := len(c.trunks) - 1
	moved := c.trunks[last]
	c.trunks[t.tindex] = moved
	moved.tindex = t.tindex
	c.trunks[last] = nil
	c.trunks = c.trunks[:last]
	t.comp = nil
	for i, u := range t.uses {
		r := u.R
		j := t.userIdx[i]
		lastU := len(r.users) - 1
		if j != lastU {
			mu := r.users[lastU]
			r.users[j] = mu
			for k := range mu.uses {
				if mu.uses[k].R == r && mu.userIdx[k] == lastU {
					mu.userIdx[k] = j
					break
				}
			}
		}
		r.users[lastU] = nil
		r.users = r.users[:lastU]
	}
	if t.inClass {
		// The class's last member left; dissolve it so the next flow of
		// this signature registers a fresh representative.
		delete(n.classes, t.class)
		t.inClass = false
		t.class = classKey{}
	}
	for i := range t.done {
		t.done[i].f = nil
	}
	t.done = t.done[:0]
	t.cum = 0
	t.rate = 0
	if t.pooled {
		t.pooled = false
		t.net = nil
		t.label = ""
		n.freeTrunks = append(n.freeTrunks, t)
	}
}

// detachMember removes f from its trunk and releases its resource claims.
// Resources that keep other users are stamped with dirtyGen and appended to
// dirty: their capacity split changed, so the group that contains them must
// be re-filled. It reports whether the removal could have disconnected the
// component: only deactivating a trunk that still spans two or more active
// resources can cut a path, so leaf removals (the common case — node-local
// disk flows) skip the connectivity sweep entirely. The caller must have
// banked f's component already.
func (n *Network) detachMember(f *Flow, c *component, dirtyGen uint64, dirty *[]*Resource) (maySplit bool) {
	t := f.tr
	if n.classAcct {
		// Materialize the member's progress from the trunk integral (the
		// caller has banked the component). Completion has already pinned
		// done to size; never lower it.
		if d := t.cum - f.joinCum; d > f.done {
			f.done = d
			if f.done > f.size {
				f.done = f.size
			}
		}
	}
	last := len(t.members) - 1
	moved := t.members[last]
	t.members[f.mindex] = moved
	moved.mindex = f.mindex
	t.members[last] = nil
	t.members = t.members[:last]
	f.mindex = -1
	lastG := len(n.flows) - 1
	movedG := n.flows[lastG]
	n.flows[f.gindex] = movedG
	movedG.gindex = f.gindex
	n.flows[lastG] = nil
	n.flows = n.flows[:lastG]
	f.gindex = -1
	for _, u := range t.uses {
		r := u.R
		r.active--
		if r.active == 0 {
			lastR := len(c.resources) - 1
			if r.cindex != lastR {
				mr := c.resources[lastR]
				c.resources[r.cindex] = mr
				mr.cindex = r.cindex
			}
			c.resources[lastR] = nil
			c.resources = c.resources[:lastR]
			r.comp = nil
		} else if r.gen != dirtyGen {
			r.gen = dirtyGen
			*dirty = append(*dirty, r)
		}
	}
	if len(t.members) == 0 {
		stillActive := 0
		for _, u := range t.uses {
			if u.R.active > 0 {
				stillActive++
			}
		}
		n.deactivateTrunk(t)
		return stillActive >= 2
	}
	return false
}

// Abort removes a flow before completion (e.g. its endpoint failed).
// The completion callback does not fire — including for zero-size flows
// and flows whose bytes already arrived but whose extra latency has not
// elapsed, whose pending deferred finish is cancelled here. Aborting a
// pooled (StartC) flow recycles it: the handle is dead when Abort
// returns.
func (n *Network) Abort(f *Flow) {
	if f.finished {
		return
	}
	if f.mindex < 0 {
		// Not occupying resources: a zero-size flow, one detached by
		// complete() and sitting in its extra-latency window, or one
		// detached by the in-progress complete() batch whose finish has
		// not run yet. In every case the completion must be suppressed —
		// the caller believes the flow is gone, and with pooled tasks
		// upstream a stale completion would fire into recycled memory.
		switch {
		case f.extraEv != nil:
			n.sim.Cancel(f.extraEv)
			f.extraEv = nil
			f.finished = true
			if f.pooled {
				n.recycleFlow(f)
			}
		case f.pendingFinish:
			// The batch loop in complete() still holds this flow: mark it
			// finished and let the loop skip (and recycle) it — recycling
			// here would let a Start inside a sibling callback reuse the
			// struct while the loop still points at it.
			f.finished = true
		}
		return
	}
	now := n.sim.Now()
	c := f.tr.comp
	if c.owesFill {
		// Pay before removing: refresh lets the groups this removal does
		// not dirty keep their rates, and those must be the rates of the
		// structure as it stands, not of some earlier one.
		n.waterfill(c, now)
	}
	n.bankFor(c, now)
	f.finished = true
	dirtyGen := n.nextGen()
	dirty := n.scratchDirty[:0]
	maySplit := n.detachMember(f, c, dirtyGen, &dirty)
	n.refresh(c, dirtyGen, len(dirty) > 0, maySplit, now)
	n.scratchDirty = dirty[:0]
	n.oweSchedule()
	if f.pooled {
		n.recycleFlow(f)
	}
}

// refresh re-establishes the component invariant after removals: it splits
// c into its true connected groups, owes a re-fill only to groups that
// contain a dirty resource (one whose capacity split changed), and rescans
// completion candidates for the rest. Groups untouched by the removal keep
// their rates — the max-min allocation of a connected group is independent
// of the rest of the network.
func (n *Network) refresh(c *component, dirtyGen uint64, anyDirty, maySplit bool, now des.Time) {
	if len(c.trunks) == 0 {
		n.removeComp(c)
		return
	}
	if !maySplit {
		// No bridge was removed, so the component is still connected.
		if anyDirty {
			n.oweFill(c)
		} else if n.classAcct {
			n.rescanNext(c, now)
		}
		return
	}
	// Partition the trunks into connected groups by BFS over shared
	// resources. Resource user lists only ever reference trunks of the same
	// component, so the traversal stays inside c.
	bfsGen := n.nextGen()
	trunks := n.scratchTrunks[:0]
	bounds := n.scratchBounds[:0]
	for _, t0 := range c.trunks {
		if t0.gen == bfsGen {
			continue
		}
		bounds = append(bounds, len(trunks))
		t0.gen = bfsGen
		trunks = append(trunks, t0)
		for head := bounds[len(bounds)-1]; head < len(trunks); head++ {
			t := trunks[head]
			for _, u := range t.uses {
				r := u.R
				if r.bfsGen == bfsGen {
					continue
				}
				r.bfsGen = bfsGen
				for _, s := range r.users {
					if s.gen != bfsGen {
						s.gen = bfsGen
						trunks = append(trunks, s)
					}
				}
			}
		}
	}
	bounds = append(bounds, len(trunks))
	n.scratchTrunks = trunks
	n.scratchBounds = bounds

	if len(bounds) == 2 {
		// Still one connected component.
		if anyDirty {
			n.oweFill(c)
		} else if n.classAcct {
			n.rescanNext(c, now)
		}
		return
	}

	// The component split. Reuse c for the first group and mint components
	// for the rest; every group was just banked, so lastBank = now.
	for _, r := range c.resources {
		r.comp = nil
	}
	c.trunks = c.trunks[:0]
	c.resources = c.resources[:0]
	for gi := 0; gi+1 < len(bounds); gi++ {
		group := trunks[bounds[gi]:bounds[gi+1]]
		gc := c
		if gi > 0 {
			gc = n.allocComp(now)
		}
		dirtyGroup := false
		for _, t := range group {
			t.comp = gc
			t.tindex = len(gc.trunks)
			gc.trunks = append(gc.trunks, t)
			for _, u := range t.uses {
				r := u.R
				if r.gen == dirtyGen {
					dirtyGroup = true
				}
				if r.comp == nil {
					r.comp = gc
					r.cindex = len(gc.resources)
					gc.resources = append(gc.resources, r)
				}
			}
		}
		if dirtyGroup {
			n.oweFill(gc)
		} else if n.classAcct {
			n.rescanNext(gc, now)
		}
	}
}

// waterfill recomputes max-min fair rates for one component by progressive
// water-filling and refreshes its completion candidate. It reads only the
// component's structure (trunk order, members, resource active counts) and,
// for the candidate, progress banked to now — never the previous rates —
// which is what lets settle run it once per instant. A trunk with k
// members contributes exactly like k identical flows: weights accumulate
// and capacity drains one member at a time, so coalesced and separate
// transfers produce bit-identical arithmetic.
func (n *Network) waterfill(c *component, now des.Time) {
	c.owesFill = false
	n.fills++
	gen := n.nextGen()
	for _, t := range c.trunks {
		t.frozen = false
		k := len(t.members)
		for _, u := range t.uses {
			r := u.R
			if r.gen != gen {
				r.gen = gen
				// Effective capacity depends on total concurrency on the
				// resource; r.active is exactly that.
				r.remaining = r.Effective(r.active)
				r.weight = 0
				r.count = 0
			}
			if n.classAcct {
				r.weight += u.Weight * float64(k)
			} else {
				for j := 0; j < k; j++ {
					r.weight += u.Weight
				}
			}
			r.count += k
		}
	}

	// Progressive filling: find the bottleneck rate, freeze every unfrozen
	// trunk whose own limit equals it, subtract consumed capacity, repeat.
	unfrozen := len(c.trunks)
	for unfrozen > 0 {
		bottleneck := math.Inf(1)
		for _, r := range c.resources {
			if r.count == 0 || r.weight <= 0 {
				continue
			}
			if rate := r.remaining / r.weight; rate < bottleneck {
				bottleneck = rate
			}
		}
		if math.IsInf(bottleneck, 1) {
			for _, t := range c.trunks {
				if !t.frozen {
					t.frozen = true
					if n.classAcct {
						t.rate = math.MaxFloat64 / 4
					} else {
						for _, f := range t.members {
							f.rate = math.MaxFloat64 / 4
						}
					}
					unfrozen--
				}
			}
			break
		}
		if bottleneck < 0 {
			bottleneck = 0
		}
		frozenAny := false
		for _, t := range c.trunks {
			if t.frozen {
				continue
			}
			limit := math.Inf(1)
			for _, u := range t.uses {
				if l := u.R.remaining / u.R.weight; l < limit {
					limit = l
				}
			}
			if limit <= bottleneck*(1+1e-12) {
				t.frozen = true
				unfrozen--
				frozenAny = true
				n.freezeTrunk(t, bottleneck)
			}
		}
		if !frozenAny {
			// Numerical corner: freeze the single slowest trunk to guarantee
			// progress.
			var worst *Trunk
			worstLimit := math.Inf(1)
			for _, t := range c.trunks {
				if t.frozen {
					continue
				}
				limit := math.Inf(1)
				for _, u := range t.uses {
					if l := u.R.remaining / u.R.weight; l < limit {
						limit = l
					}
				}
				if limit < worstLimit {
					worstLimit = limit
					worst = t
				}
			}
			worst.frozen = true
			unfrozen--
			n.freezeTrunk(worst, worstLimit)
		}
	}
	if n.classAcct {
		n.rescanNext(c, now)
	}
}

// freezeTrunk locks every member at the given rate and drains the members'
// consumption from the trunk's resources, one member at a time so the
// arithmetic matches k independent flows exactly. Class accounting stores
// the shared rate on the trunk and drains in closed form instead — the
// mathematically identical result with different rounding, which is the
// mode's documented contract.
func (n *Network) freezeTrunk(t *Trunk, rate float64) {
	k := len(t.members)
	if n.classAcct {
		t.rate = rate
		for _, u := range t.uses {
			r := u.R
			r.remaining -= rate * u.Weight * float64(k)
			if r.remaining < 0 {
				r.remaining = 0
			}
			r.weight -= float64(k) * u.Weight
			r.count -= k
		}
		return
	}
	for _, f := range t.members {
		f.rate = rate
	}
	for _, u := range t.uses {
		r := u.R
		for j := 0; j < k; j++ {
			r.remaining -= rate * u.Weight
			if r.remaining < 0 {
				r.remaining = 0
			}
		}
		r.weight -= float64(k) * u.Weight
		r.count -= k
	}
}

// compHeapUpdate re-keys (or inserts/removes) a component in the
// completion index after its candidate changed.
func (n *Network) compHeapUpdate(c *component) {
	if c.next == nil {
		n.compHeapRemove(c)
		return
	}
	if c.hindex < 0 {
		c.hindex = len(n.compHeap)
		n.compHeap = append(n.compHeap, c)
	}
	n.compHeapSiftUp(c.hindex)
	n.compHeapSiftDown(c.hindex)
}

func (n *Network) compHeapRemove(c *component) {
	if c.hindex < 0 {
		return
	}
	i := c.hindex
	last := len(n.compHeap) - 1
	if i != last {
		moved := n.compHeap[last]
		n.compHeap[i] = moved
		moved.hindex = i
	}
	n.compHeap[last] = nil
	n.compHeap = n.compHeap[:last]
	c.hindex = -1
	if i < len(n.compHeap) {
		n.compHeapSiftUp(i)
		n.compHeapSiftDown(i)
	}
}

func (n *Network) compHeapSiftUp(i int) {
	h := n.compHeap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].nextAt <= h[i].nextAt {
			return
		}
		h[p], h[i] = h[i], h[p]
		h[p].hindex = p
		h[i].hindex = i
		i = p
	}
}

func (n *Network) compHeapSiftDown(i int) {
	h := n.compHeap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].nextAt < h[small].nextAt {
			small = l
		}
		if r < len(h) && h[r].nextAt < h[small].nextAt {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		h[i].hindex = i
		h[small].hindex = small
		i = small
	}
}

// rescanNext refreshes the component's cached earliest-completion
// candidate from current rates and progress (class accounting only): one
// heap root per trunk.
func (n *Network) rescanNext(c *component, now des.Time) {
	c.next = nil
	c.nextAt = des.Forever
	for _, t := range c.trunks {
		if t.rate <= 0 {
			continue
		}
		e := t.validRoot()
		if e == nil {
			continue
		}
		eta := now + des.Time((e.key-t.cum)/t.rate)
		if eta < now {
			eta = now // completion-epsilon overshoot rounds to now
		}
		if eta < c.nextAt {
			c.nextAt = eta
			c.next = e.f
		}
	}
	n.compHeapUpdate(c)
}

// scheduleCompletion points the network's single completion event at the
// earliest candidate. Every operation that can change a completion time
// owes one (oweSchedule); settle calls it once, with rates current, and the
// event carries the sequence number reserved at the last such operation.
// Class accounting reads the completion index root; strict mode rescans
// every flow with freshly banked progress so the scheduled instant is
// bit-identical to what the historical global rebalance produced.
func (n *Network) scheduleCompletion() {
	n.scheds++
	var next *Flow
	nextAt := des.Forever
	if n.classAcct {
		if len(n.compHeap) > 0 {
			nextAt = n.compHeap[0].nextAt
			next = n.compHeap[0].next
		}
	} else {
		now := n.sim.Now()
		for _, f := range n.flows {
			if f.rate <= 0 {
				continue
			}
			eta := now + des.Time((f.size-f.done)/f.rate)
			if eta < nextAt {
				nextAt = eta
				next = f
			}
		}
	}
	if next == nil {
		if len(n.flows) > 0 {
			panic("flow: active flows but no positive rate; deadlock")
		}
		if n.completion != nil {
			n.sim.Cancel(n.completion)
			n.completion = nil
		}
		n.nextFlow = nil
		return
	}
	n.nextFlow = next
	if n.completion != nil {
		n.sim.Cancel(n.completion)
	}
	n.completion = n.sim.AtTimerSeq(nextAt, &n.compTimer, n.schedSeq)
}

// complete fires when the network believes the target flow has finished; it
// finalizes every flow that is (numerically) done and refreshes the affected
// components; their re-fills and the reschedule are owed to settle, together
// with whatever the completion callbacks start.
func (n *Network) complete() {
	// The batch reads rates and candidates. Reached through the network's
	// own event this is a no-op: the kernel settled before it chose the
	// event.
	n.settle()
	n.completion = nil
	target := n.nextFlow
	n.nextFlow = nil
	now := n.sim.Now()
	// Finish all flows within epsilon of completion, not just the target:
	// equal-rate flows finish simultaneously and must all be finalized now,
	// in global start/swap-remove order, even across components. Strict mode
	// banks everyone first; class accounting compares virtual progress so
	// untouched components need no banking writes.
	if !n.classAcct {
		n.bankAll(now)
	}
	doneFlows := n.scratchDone[:0]
	if n.classAcct {
		// Drain the components due now off the completion index (they are
		// its smallest keys), popping each trunk's heap down to the
		// members within epsilon of done, then restore the global start
		// order strict mode's flow scan produces by construction. Heap keys
		// are exactly size minus virtual progress shifted by the trunk
		// integral, so the epsilon test matches the scan's per-flow test;
		// an epsilon-done flow in a component whose candidate sits a hair
		// later simply finalizes at its own event instead of this batch.
		// Components are popped from the index here and re-registered by
		// the post-detach rescan.
		for len(n.compHeap) > 0 {
			c := n.compHeap[0]
			if c.nextAt > now {
				break
			}
			n.compHeapRemove(c)
			popped := false
			dt := float64(now - c.lastBank)
			for _, t := range c.trunks {
				cumNow := t.cum
				if dt > 0 {
					cumNow += t.rate * dt
				}
				for {
					e := t.validRoot()
					if e == nil {
						break
					}
					f := e.f
					if f != target && e.key-cumNow > 1e-6*math.Max(1, f.size) {
						break
					}
					t.popDone()
					f.pendingFinish = true
					doneFlows = append(doneFlows, f)
					popped = true
				}
			}
			if !popped {
				// Numeric edge: the component's ETA rounded to now but its
				// candidate is not within the byte epsilon (e.g. an
				// unconstrained-rate trunk whose huge rate collapses any
				// remaining volume to a zero time delta). Re-register it
				// and stop draining: it finalizes at its own event, where
				// the candidate is the target and pops unconditionally.
				c.bank(now)
				n.rescanNext(c, now)
				break
			}
		}
		if target != nil && !target.pendingFinish && !target.finished && target.mindex >= 0 {
			// Numerical backstop: the event fired for the target, so it
			// finalizes now even if a stale-ordered heap missed it.
			target.pendingFinish = true
			doneFlows = append(doneFlows, target)
		}
		// Heapsort by global start index: allocation-free, and symmetric
		// workloads legitimately complete thousands of flows at one
		// instant, so the sort must not be quadratic in the batch.
		sortFlowsByStart(doneFlows)
	} else {
		for _, f := range n.flows {
			if f == target || f.size-f.done <= 1e-6*math.Max(1, f.size) {
				f.pendingFinish = true
				doneFlows = append(doneFlows, f)
			}
		}
	}
	// Prune each affected component, then re-establish its invariants.
	// Components are collected in first-affected order (an O(1) stamp per
	// flow — a symmetric batch can span thousands of components); state is
	// independent across components, so detaching in one global pass and
	// refreshing afterwards is equivalent to the per-component grouping,
	// and only the finish order below is behaviorally visible.
	dirtyGen := n.nextGen()
	affGen := n.nextGen()
	affected := n.scratchComps[:0]
	dirty := n.scratchDirty[:0]
	for _, f := range doneFlows {
		c := f.tr.comp
		if c.affGen != affGen {
			c.affGen = affGen
			c.affDirty = false
			c.affMaySplit = false
			if n.classAcct {
				c.bank(now)
			}
			affected = append(affected, c)
		}
		f.done = f.size
		before := len(dirty)
		if n.detachMember(f, c, dirtyGen, &dirty) {
			c.affMaySplit = true
		}
		if len(dirty) > before {
			c.affDirty = true
		}
	}
	for i, c := range affected {
		n.refresh(c, dirtyGen, c.affDirty, c.affMaySplit, now)
		affected[i] = nil
	}
	n.scratchComps = affected[:0]
	n.scratchDirty = dirty[:0]
	n.oweSchedule()
	for _, f := range doneFlows {
		f.pendingFinish = false
		if f.finished {
			// Aborted by a completion callback that ran earlier in this
			// same batch: the finish is suppressed; the loop still owns
			// the struct, so pooled flows recycle here.
			if f.pooled {
				n.recycleFlow(f)
			}
			continue
		}
		if f.extra > 0 {
			f.extraEv = n.sim.AfterTimer(f.extra, f)
		} else {
			n.finish(f)
		}
	}
	n.scratchDone = doneFlows[:0]
}

// sortFlowsByStart heapsorts a completion batch by global start index —
// the order the flow-scan detection produces by construction — without
// allocating.
func sortFlowsByStart(fs []*Flow) {
	// Batches drained from one trunk heap arrive in key order, which for
	// same-size members IS start order — detect the sorted common case in
	// one pass before paying for a sort.
	sorted := true
	for i := 1; i < len(fs); i++ {
		if fs[i-1].gindex > fs[i].gindex {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	sift := func(lo, hi int) {
		root := lo
		for {
			child := 2*root + 1
			if child >= hi {
				return
			}
			if child+1 < hi && fs[child].gindex < fs[child+1].gindex {
				child++
			}
			if fs[root].gindex >= fs[child].gindex {
				return
			}
			fs[root], fs[child] = fs[child], fs[root]
			root = child
		}
	}
	for i := len(fs)/2 - 1; i >= 0; i-- {
		sift(i, len(fs))
	}
	for i := len(fs) - 1; i > 0; i-- {
		fs[0], fs[i] = fs[i], fs[0]
		sift(0, i)
	}
}

func (n *Network) finish(f *Flow) {
	if f.finished {
		return
	}
	f.finished = true
	f.done = f.size
	n.Completed++
	if f.onDone != nil {
		f.onDone(f)
	} else if f.onDoneC != nil {
		f.onDoneC.FlowDone(f)
	}
	if f.pooled {
		n.recycleFlow(f)
	}
}
