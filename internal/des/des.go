// Package des provides a minimal discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events are callbacks scheduled at absolute or relative virtual times.
// Ties are broken by scheduling order so runs are fully deterministic.
//
// The kernel is intentionally single-threaded: all model code runs inside
// event callbacks on the goroutine that calls Run, so model state needs no
// locking. This mirrors the structure of classic network/cluster simulators
// and keeps large experiments (hundreds of thousands of events) cheap.
//
// # The two-tier ladder queue
//
// The pending set is stored in a calendar/ladder structure instead of one
// binary heap, so push and pop stay O(1) amortized as the pending count
// grows with simulated cluster size:
//
//   - a small "front" binary heap holds the events nearest in time
//     (every event with time < frontEnd);
//   - a rung of equal-width buckets holds the mid-future, one unsorted
//     slice per bucket; when the front heap drains, the next non-empty
//     bucket is swept into it (and heapified) in one pass;
//   - an unsorted "far" overflow list holds everything beyond the rung;
//     when the rung is exhausted the far list is re-bucketed into a fresh
//     rung sized from its population and time span.
//
// Events are totally ordered by (time, sequence number) and the sequence
// number is unique, so the pop order is a property of the event set alone:
// whatever tier an event sits in, the order events fire is bit-identical
// to the old single binary heap (white-box tests pin this parity). Each
// event remembers its tier and slot, so Cancel and Reschedule remain
// eager O(1)/O(log front) removals and the live-event count stays an O(1)
// counter.
//
// # Event recycling
//
// Fired and cancelled events are recycled through a per-simulator free
// list, so steady-state simulation schedules without allocating. That
// makes Event handles single-use: a handle is valid until its callback
// runs or until Cancel returns, and must be dropped (typically by
// clearing the field that held it) at that point. Retaining a stale
// handle and cancelling it later may hit an unrelated recycled event —
// always a model bug, never detectable by the kernel. The callback of a
// recycled event is cleared before the event re-enters the free list, so
// a stale callback can never fire.
//
// # Typed callbacks
//
// The closure-based At/After allocate a closure per schedule site when
// the callback captures state. Hot model code should instead implement
// Timer (one Fire method on an object that already exists, dispatching on
// its own phase state) and schedule with AtTimer/AfterTimer: together
// with the free list this makes the schedule–fire cycle allocation-free.
//
// # Settling deferred model state
//
// A model layer may defer recomputing derived state (the flow network's
// max-min rates and its completion event) until the end of the instant
// that invalidated it. BeforeNext registers a one-shot Settler, and
// ReserveSeq/AtTimerSeq let that settler schedule its event under the
// sequence number it would have been given had it been scheduled at the
// point the work became owed, so deferring never changes a same-time tie.
//
// The kernel rule: an owing settler runs before the clock moves, when the
// queue is empty, and before any event it says it must precede
// (SettleBefore). Otherwise the kernel fires the next event — at the
// current instant — with the settler still owing, so the events of one
// instant can share one settle. A settler answers "before" for every event
// that could observe the difference: its own stale event, or one that the
// event it owes could be ordered ahead of. When any owing settler answers
// "before", all of them run, and the kernel inspects its queue again.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Forever is a time later than any event the simulator will ever reach.
const Forever Time = Time(math.MaxFloat64)

// Timer is the allocation-free callback form: the simulator calls Fire on
// the scheduled value. Implementations are typically long-lived model
// objects that dispatch on their own phase state, so scheduling one does
// not allocate the way a capturing closure does.
type Timer interface {
	Fire()
}

// Settler is model state that owes a recomputation; see BeforeNext and
// the kernel rule in the package comment.
type Settler interface {
	// Settle pays the owed recomputation.
	Settle()
	// SettleBefore reports whether Settle must run before next, the
	// queue's head at the current instant. Answering false lets next fire
	// first, so it must only do so when next would also have fired first,
	// and observed the same state, had Settle run at once.
	SettleBefore(next *Event) bool
}

// Event tier markers, stored in Event.tier. Non-negative values are rung
// bucket indices.
const (
	tierNone  = -3 // not queued (fired, cancelled, or on the free list)
	tierFar   = -2 // in the far overflow list
	tierFront = -1 // in the front heap
)

// Event is a scheduled callback. It is returned by At and After so callers
// can cancel it before it fires. Handles are single-use: once the event
// has fired or been cancelled the kernel recycles it, and the handle must
// be dropped (see the package comment).
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	tm    Timer
	index int // slot within the current tier's container, -1 when not queued
	tier  int // tierFront, tierFar, or a rung bucket index
	fired bool
	canc  bool
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Seq returns the event's sequence number: among events at one time, the
// lower number fires first. ReserveSeq hands out numbers from the same
// counter.
func (e *Event) Seq() uint64 { return e.seq }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// minFarForRung is the far-list population below which re-bucketing is not
// worth it: the whole list is swept straight into the front heap instead.
const minFarForRung = 32

// maxRungBuckets bounds the rung so a pathological far population cannot
// allocate an absurd bucket array.
const maxRungBuckets = 1 << 15

// Simulator owns the virtual clock and event queue.
// The zero value is not usable; call New.
type Simulator struct {
	now     Time
	seq     uint64
	stopped bool
	free    []*Event // recycled events, see the package comment
	// owing holds the settlers registered since the kernel last settled
	// (BeforeNext); ensureFront runs and clears it.
	owing []Settler

	// Two-tier ladder queue state. Invariant: every event in front has
	// at < frontEnd; every event in buckets[cur:] or far has at >= frontEnd;
	// bucket i spans times below rungStart + (i+1)*width (up to the
	// transfer-time re-route for float rounding); far holds at >= rungEnd.
	front     eventHeap
	frontEnd  Time
	buckets   [][]*Event
	cur       int // next rung bucket to sweep into the front heap
	rungStart Time
	rungEnd   Time
	width     float64
	far       []*Event
	count     int // total queued events (all tiers)

	// Processed counts events that have fired, for diagnostics.
	Processed uint64
}

// New returns a simulator with the clock at zero and an empty queue.
func New() *Simulator {
	return &Simulator{}
}

// Reset returns the simulator to its initial state — clock at zero, empty
// queue, sequence counter restarted — while keeping the allocated event
// pool and bucket capacities, so a reused simulator behaves exactly like a
// fresh one but schedules its first events from recycled memory. Any
// events still queued are discarded (their callbacks never fire).
func (s *Simulator) Reset() {
	for _, e := range s.front {
		e.index = -1
		e.tier = tierNone
		s.recycle(e)
	}
	s.front = s.front[:0]
	for i := s.cur; i < len(s.buckets); i++ {
		for j, e := range s.buckets[i] {
			e.index = -1
			e.tier = tierNone
			s.recycle(e)
			s.buckets[i][j] = nil
		}
		s.buckets[i] = s.buckets[i][:0]
	}
	for i, e := range s.far {
		e.index = -1
		e.tier = tierNone
		s.recycle(e)
		s.far[i] = nil
	}
	s.far = s.far[:0]
	s.buckets = s.buckets[:0]
	s.cur = 0
	s.frontEnd = 0
	s.rungStart = 0
	s.rungEnd = 0
	s.width = 0
	s.count = 0
	s.now = 0
	s.seq = 0
	s.stopped = false
	clear(s.owing)
	s.owing = s.owing[:0]
	s.Processed = 0
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// alloc pops a recycled event or makes a fresh one, ordered by seq among
// same-time events.
func (s *Simulator) alloc(t Time, seq uint64, fn func(), tm Timer) *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.fired = false
		e.canc = false
	} else {
		e = &Event{}
	}
	e.at = t
	e.seq = seq
	e.fn = fn
	e.tm = tm
	e.index = -1
	e.tier = tierNone
	return e
}

// recycle clears an event's callback and returns it to the free list. The
// cleared callback guarantees a recycled event can never fire stale model
// code, whatever stale handles still point at it.
func (s *Simulator) recycle(e *Event) {
	e.fn = nil
	e.tm = nil
	s.free = append(s.free, e)
}

// push routes an event into the tier its time selects. The routing is a
// pure performance decision: any tier assignment that respects the
// front/rung/far invariant yields the same pop order, because popping
// sorts by (at, seq) regardless.
func (s *Simulator) push(e *Event) {
	s.count++
	switch {
	case e.at < s.frontEnd:
		e.tier = tierFront
		heap.Push(&s.front, e)
	case e.at < s.rungEnd:
		idx := s.bucketFor(e.at, s.cur)
		e.tier = idx
		e.index = len(s.buckets[idx])
		s.buckets[idx] = append(s.buckets[idx], e)
	default:
		e.tier = tierFar
		e.index = len(s.far)
		s.far = append(s.far, e)
	}
}

// bucketFor maps a time into a rung bucket index, clamped to [lo,
// len(buckets)-1] so float rounding at a bucket boundary can never route
// an event into an already-swept bucket. Rounding can also land an event
// one bucket LATE (the subtract-then-divide pair rounding up across the
// boundary), which — unlike the early direction, which the sweep
// re-routes — would fire it after later-timestamped events; the walk-down
// restores the invariant that an event's bucket lower bound never exceeds
// its time.
func (s *Simulator) bucketFor(t Time, lo int) int {
	idx := int(float64(t-s.rungStart) / s.width)
	if idx >= len(s.buckets) {
		idx = len(s.buckets) - 1
	}
	for idx > lo && t < Time(float64(s.rungStart)+s.width*float64(idx)) {
		idx--
	}
	if idx < lo {
		idx = lo
	}
	return idx
}

// remove detaches a queued event from whatever tier holds it, O(1) for
// rung/far slots and O(log n) for the front heap.
func (s *Simulator) remove(e *Event) {
	switch {
	case e.tier == tierFront:
		heap.Remove(&s.front, e.index)
	case e.tier == tierFar:
		s.far = swapRemove(s.far, e.index)
	default:
		s.buckets[e.tier] = swapRemove(s.buckets[e.tier], e.index)
	}
	e.index = -1
	e.tier = tierNone
	s.count--
}

// swapRemove removes slot i from an unsorted tier slice, keeping the moved
// event's index current. Order within a tier slice is irrelevant: the
// front heap re-establishes the (at, seq) order at sweep time.
func swapRemove(list []*Event, i int) []*Event {
	last := len(list) - 1
	if i != last {
		moved := list[last]
		list[i] = moved
		moved.index = i
	}
	list[last] = nil
	return list[:last]
}

// ensureFront makes the front heap hold the globally earliest event,
// sweeping rung buckets (and re-bucketing the far list) as needed. It
// reports whether any event is pending. Every inspection of the queue goes
// through here, so this is where owing settlers run (the kernel rule in
// the package comment); a settle can cancel and schedule events, so the
// queue is inspected again after it.
func (s *Simulator) ensureFront() bool {
	for {
		for len(s.front) == 0 && s.sweepBucket() {
		}
		if len(s.front) == 0 && len(s.far) > 0 {
			s.reRung()
			continue
		}
		if len(s.owing) == 0 {
			return len(s.front) > 0
		}
		if len(s.front) > 0 && s.front[0].at == s.now && !s.mustSettle(s.front[0]) {
			return true
		}
		s.settle()
	}
}

// mustSettle reports whether some owing settler must run before h.
func (s *Simulator) mustSettle(h *Event) bool {
	for _, x := range s.owing {
		if x.SettleBefore(h) {
			return true
		}
	}
	return false
}

// settle runs the registered settlers once each, in registration order.
func (s *Simulator) settle() {
	for i := 0; i < len(s.owing); i++ {
		x := s.owing[i]
		s.owing[i] = nil
		x.Settle()
	}
	s.owing = s.owing[:0]
}

// sweepBucket moves the next non-empty rung bucket into the front heap,
// advancing frontEnd to that bucket's upper boundary. It reports whether
// a sweep happened (the front heap may still be empty if every event of
// the bucket was re-routed forward by the rounding guard).
func (s *Simulator) sweepBucket() bool {
	for s.cur < len(s.buckets) {
		i := s.cur
		s.cur++
		newEnd := Time(float64(s.rungStart) + s.width*float64(i+1))
		if i == len(s.buckets)-1 || newEnd > s.rungEnd {
			newEnd = s.rungEnd
		}
		b := s.buckets[i]
		if len(b) == 0 {
			s.frontEnd = newEnd
			continue
		}
		for j, e := range b {
			b[j] = nil
			if e.at >= newEnd {
				// Float rounding routed the event one bucket early; push it
				// forward so the front-heap invariant (everything in front is
				// earlier than everything outside) holds exactly.
				s.count-- // push re-increments
				s.push(e)
				continue
			}
			e.tier = tierFront
			e.index = len(s.front)
			s.front = append(s.front, e)
		}
		s.buckets[i] = b[:0]
		heap.Init(&s.front)
		s.frontEnd = newEnd
		return true
	}
	return false
}

// reRung rebuilds the rung from the far list: sized from the population,
// spanning its time range. A small or zero-span population goes straight
// into the front heap instead.
func (s *Simulator) reRung() {
	far := s.far
	minAt, maxAt := far[0].at, far[0].at
	for _, e := range far[1:] {
		if e.at < minAt {
			minAt = e.at
		}
		if e.at > maxAt {
			maxAt = e.at
		}
	}
	nb := len(far)
	if nb > maxRungBuckets {
		nb = maxRungBuckets
	}
	width := float64(maxAt-minAt) / float64(nb)
	if len(far) < minFarForRung || width <= 0 || math.IsInf(width, 1) {
		// Sweep everything into the front heap. frontEnd moves just past the
		// latest time so future pushes route normally.
		for j, e := range far {
			far[j] = nil
			e.tier = tierFront
			e.index = len(s.front)
			s.front = append(s.front, e)
		}
		s.far = far[:0]
		heap.Init(&s.front)
		s.frontEnd = Time(math.Nextafter(float64(maxAt), math.Inf(1)))
		s.rungEnd = s.frontEnd
		return
	}
	if cap(s.buckets) < nb {
		s.buckets = append(s.buckets[:cap(s.buckets)], make([][]*Event, nb-cap(s.buckets))...)
	}
	s.buckets = s.buckets[:nb]
	s.cur = 0
	s.rungStart = minAt
	s.width = width
	end := Time(float64(minAt) + width*float64(nb))
	if end <= maxAt {
		end = Time(math.Nextafter(float64(maxAt), math.Inf(1)))
	}
	s.rungEnd = end
	s.frontEnd = minAt
	kept := far[:0]
	for _, e := range far {
		if e.at >= s.rungEnd {
			e.index = len(kept)
			kept = append(kept, e)
			continue
		}
		idx := s.bucketFor(e.at, 0)
		e.tier = idx
		e.index = len(s.buckets[idx])
		s.buckets[idx] = append(s.buckets[idx], e)
	}
	for i := len(kept); i < len(far); i++ {
		far[i] = nil
	}
	s.far = kept
}

// At schedules fn to run at absolute virtual time t.
// Scheduling in the past panics: it always indicates a model bug.
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	e := s.alloc(t, s.ReserveSeq(), fn, nil)
	s.push(e)
	return e
}

// AtTimer schedules tm.Fire to run at absolute virtual time t. This is
// the allocation-free form of At for callbacks that live on an existing
// model object. Scheduling in the past panics.
func (s *Simulator) AtTimer(t Time, tm Timer) *Event {
	return s.AtTimerSeq(t, tm, s.ReserveSeq())
}

// ReserveSeq consumes and returns the next scheduling sequence number
// without scheduling anything. A settler (BeforeNext) calls it at the point
// its event would have been scheduled eagerly and hands the number to
// AtTimerSeq once the event's time is known.
func (s *Simulator) ReserveSeq() uint64 {
	s.seq++
	return s.seq
}

// AtTimerSeq is AtTimer under a sequence number obtained from ReserveSeq:
// among same-time events, tm fires as if it had been scheduled at the
// moment of the reservation. A reservation orders at most one queued event.
func (s *Simulator) AtTimerSeq(t Time, tm Timer, seq uint64) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	e := s.alloc(t, seq, nil, tm)
	s.push(e)
	return e
}

// BeforeNext registers x.Settle to run once, when the kernel next inspects
// its queue (Step, RunUntil) and finds the clock about to move, the queue
// empty, or a head event x.SettleBefore says it must precede. Same-time
// events x lets go first fire with x still owing. It is how a model layer
// coalesces the recomputations one instant's events owe into a single one
// at the end of the instant. Settle may schedule and cancel events; it
// must not call back into the queue-inspecting methods.
func (s *Simulator) BeforeNext(x Settler) {
	s.owing = append(s.owing, x)
}

// Reschedule moves a pending event to absolute time t without allocating a
// new one. It is the in-place equivalent of Cancel followed by At with the
// same callback: the event is assigned a fresh sequence number, so its
// ordering against same-time events is exactly what the cancel+push pair
// would produce. Rescheduling a fired or cancelled event panics — the
// callback is gone, so it always indicates a lifecycle bug in the model.
func (s *Simulator) Reschedule(e *Event, t Time) {
	if t < s.now {
		panic(fmt.Sprintf("des: rescheduling event at %v before now %v", t, s.now))
	}
	if e == nil || e.fired || e.canc || e.index < 0 {
		panic("des: Reschedule of a fired, cancelled or unqueued event")
	}
	s.remove(e)
	e.at = t
	e.seq = s.ReserveSeq()
	s.push(e)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Simulator) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AfterTimer schedules tm.Fire to run d seconds from now. Negative d
// panics.
func (s *Simulator) AfterTimer(d Time, tm Timer) *Event {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return s.AtTimer(s.now+d, tm)
}

// Cancel prevents a pending event from firing and recycles it. Cancelling
// an event that has already fired or been cancelled is a no-op — but only
// while the handle is fresh; see the package comment on handle lifetime.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.fired || e.canc {
		return
	}
	e.canc = true
	if e.index >= 0 {
		s.remove(e)
		s.recycle(e)
	}
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event fired.
func (s *Simulator) Step() bool {
	if !s.ensureFront() {
		return false
	}
	e := heap.Pop(&s.front).(*Event)
	e.tier = tierNone
	s.count--
	s.now = e.at
	e.fired = true
	s.Processed++
	// Fire, then recycle: during the callback the event is marked
	// fired, so a self-Cancel is a no-op and a Reschedule panics; the
	// callback cannot observe the recycled state.
	if e.tm != nil {
		e.tm.Fire()
	} else {
		e.fn()
	}
	s.recycle(e)
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil fires events with time <= t, then advances the clock to t.
func (s *Simulator) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		if !s.ensureFront() || s.front[0].at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// Stop makes the current Run/RunUntil return after the current event.
func (s *Simulator) Stop() { s.stopped = true }
