// fastforward.go is the failure-free fast-forward engine: a micro-scheduler
// that executes the deterministic bulk of a run — task phase timers and flow
// completions — in closed form, advancing the simulator clock directly
// instead of pumping every step through the event queue.
//
// The engine rests on two facts. First, under class accounting the flow
// network already knows each trunk's future in closed form: shared rates,
// progress integrals and time-invariant completion keys, exposed as the
// earliest-completion horizon (flow.CompletionHorizon). Second, a task's
// phase timers are pure delays — their fire times are fixed at scheduling.
// Both kinds of "event" are therefore known ahead of time, and as long as
// nothing else intervenes, executing them one after another with the clock
// jumped between (des.SetNow) is step-for-step identical to the event queue
// popping them: same times (the arithmetic is shared), same tie order (the
// micro-heap assigns sequence numbers at the same program points the queue
// would), same callbacks.
//
// The event queue itself is the quiescence horizon that bounds every skip:
// before absorbing a micro-event the engine asks des.NextAt, and if any
// real event — a failure pulse, a detection deadline, a speculation check,
// a deferred zero-size completion — is due at or before the micro-event,
// the engine parks (wake event at the micro-time) and lets the queue
// process exactly, event by event. No flush or state migration is needed to
// re-enter exact mode: absorbed and queued events live on the same model
// state at the same clock. Skipping resumes by itself once the queue is
// quiet again. The cluster's registered pulse times (cluster.RegisterPulse)
// bound the skip a second time, independent of the queue — defense in depth
// for perturbations, which must never be absorbed.
//
// Every absorbed event increments des.Simulator.Absorbed, so
// Processed+Absorbed-wakes is the run's semantic event count whatever mix
// of modes executed it (Result.Events).
package mapreduce

import (
	"rcmp/internal/cluster"
	"rcmp/internal/des"
	"rcmp/internal/flow"
)

// ffEntry is one pending micro-event: a des.Timer to fire at a virtual
// time, ordered by (at, seq) exactly like queue events. slot points at the
// owner's 1-based heap-position field (0 = absent), kept current through
// every sift so cancellation is O(log n) with no search.
type ffEntry struct {
	at   des.Time
	seq  uint64
	tm   des.Timer
	slot *int
}

// ffController owns the micro-heap and the single real wake event that
// represents it in the queue. It implements des.Timer (the wake firing)
// and flow.CompletionHorizon (the network's earliest-completion feed).
type ffController struct {
	sim  *des.Simulator
	net  *flow.Network
	clus *cluster.Cluster

	heap []ffEntry
	seq  uint64

	// wake is the one queue event the engine keeps pending: scheduled at
	// the micro-heap's earliest time, so queue order decides — with no
	// special cases — whether the engine or a real event runs next.
	wake    *des.Event
	inDrain bool
	// wakes counts wake firings — engine bookkeeping, not model events —
	// for the Result.Events correction.
	wakes uint64

	comp     ffComp
	compSlot int
}

// ffComp adapts the network's completion batch to a micro-heap timer: the
// entry plays the role of the network's own completion event, rescheduled
// (fresh sequence number, same program points) exactly as the queue event
// would be, so completion batches keep their tie order against task timers.
type ffComp struct{ c *ffController }

func (f *ffComp) Fire() { f.c.net.RunCompletions() }

var _ des.Timer = (*ffController)(nil)
var _ flow.CompletionHorizon = (*ffController)(nil)

// attach binds the controller to a freshly reset context and registers it
// as the network's completion horizon. Must run before the first flow
// starts, alongside the accounting-mode switches.
func (c *ffController) attach(sim *des.Simulator, net *flow.Network, clus *cluster.Cluster) {
	c.sim = sim
	c.net = net
	c.clus = clus
	for i := range c.heap {
		c.heap[i] = ffEntry{}
	}
	c.heap = c.heap[:0]
	c.seq = 0
	c.wake = nil
	c.inDrain = false
	c.wakes = 0
	c.compSlot = 0
	c.comp.c = c
	net.SetCompletionHorizon(c)
}

// after registers tm.Fire to run d seconds from now as an absorbable
// micro-event, recording the heap position in *slot.
func (c *ffController) after(d des.Time, tm des.Timer, slot *int) {
	c.seq++
	c.push(ffEntry{at: c.sim.Now() + d, seq: c.seq, tm: tm, slot: slot})
	c.resync()
}

// cancel removes the pending micro-event *slot points at (no-op when 0).
func (c *ffController) cancel(slot *int) {
	if *slot == 0 {
		return
	}
	c.removeAt(*slot - 1)
	c.resync()
}

// ReserveCompletionSeq implements flow.CompletionHorizon: a micro-heap
// sequence number taken at the operation that moved the network's earliest
// completion, exactly where the queue would number the network's own event
// in exact mode.
func (c *ffController) ReserveCompletionSeq() uint64 {
	c.seq++
	return c.seq
}

// CompletionHorizonChanged implements flow.CompletionHorizon: the entry
// standing in for the network's completion event is re-pushed under the
// sequence number the network reserved for it, so completion batches tie
// against task timers as the exact-mode event would.
func (c *ffController) CompletionHorizonChanged(at des.Time, seq uint64) {
	if c.compSlot != 0 {
		c.removeAt(c.compSlot - 1)
	}
	if at != des.Forever {
		c.push(ffEntry{at: at, seq: seq, tm: &c.comp, slot: &c.compSlot})
	}
	c.resync()
}

// Fire implements des.Timer: the wake event reached the micro-heap's
// earliest time with no earlier queue event, so absorption may proceed.
func (c *ffController) Fire() {
	c.wake = nil
	c.wakes++
	c.drain()
	c.resync()
}

// drain absorbs micro-events in (at, seq) order until the queue or the
// cluster's pulse horizon interposes a real event. Ties defer to the
// queue: a perturbation scheduled at exactly a micro-event's time must
// process first (injections and detections are registered before the task
// timers they coincide with, so the queue's order is the exact-mode one).
func (c *ffController) drain() {
	c.inDrain = true
	for {
		// NextAt first: inspecting the queue settles the flow network, which
		// is what (re)places the completion entry after the micro-event just
		// fired — the heap root is only meaningful after it.
		horizon, pending := c.sim.NextAt()
		if len(c.heap) == 0 {
			break
		}
		at := c.heap[0].at
		if p := c.clus.NextPulseAt(c.sim.Now()); !pending || p < horizon {
			horizon, pending = p, true
		}
		if pending && horizon <= at {
			break
		}
		c.sim.SetNow(at)
		c.sim.Absorbed++
		e := c.removeAt(0)
		e.tm.Fire()
	}
	c.inDrain = false
}

// resync keeps the wake event at the micro-heap's earliest time. Skipped
// while draining (the loop re-reads the heap itself); the drain epilogue
// runs it once.
func (c *ffController) resync() {
	if c.inDrain {
		return
	}
	if len(c.heap) == 0 {
		if c.wake != nil {
			c.sim.Cancel(c.wake)
			c.wake = nil
		}
		return
	}
	at := c.heap[0].at
	switch {
	case c.wake == nil:
		c.wake = c.sim.AtTimer(at, c)
	case c.wake.At() != at:
		c.sim.Reschedule(c.wake, at)
	}
}

func ffLess(a, b *ffEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *ffController) push(e ffEntry) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	*c.heap[i].slot = i + 1
	c.siftUp(i)
}

// removeAt detaches and returns the entry at heap index i.
func (c *ffController) removeAt(i int) ffEntry {
	h := c.heap
	e := h[i]
	*e.slot = 0
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		*h[i].slot = i + 1
	}
	h[last] = ffEntry{}
	c.heap = h[:last]
	if i != last {
		c.siftUp(i)
		c.siftDown(i)
	}
	return e
}

func (c *ffController) siftUp(i int) {
	h := c.heap
	for i > 0 {
		p := (i - 1) / 2
		if ffLess(&h[p], &h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		*h[p].slot = p + 1
		*h[i].slot = i + 1
		i = p
	}
}

func (c *ffController) siftDown(i int) {
	h := c.heap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && ffLess(&h[l], &h[small]) {
			small = l
		}
		if r < len(h) && ffLess(&h[r], &h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		*h[i].slot = i + 1
		*h[small].slot = small + 1
		i = small
	}
}
