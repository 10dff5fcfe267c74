package flow

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rcmp/internal/des"
)

// settle_test.go pins the two rules that keep deferred settling identical
// to recomputing after every operation, and the property that makes it
// worth having: one water-fill and one reschedule per instant.

// TestSettleKeepsCompletionAheadOfLaterTimer: a handler starts a flow and
// then schedules a timer landing on exactly the flow's completion time.
// Recomputing eagerly, the completion event was scheduled at the Start and
// so fires first; the deferred reschedule must carry the sequence number
// reserved at the Start, not one taken when settle runs.
func TestSettleKeepsCompletionAheadOfLaterTimer(t *testing.T) {
	sim := des.New()
	net := NewNetwork(sim)
	r := &Resource{Name: "disk", Capacity: 100}
	var order []string
	sim.At(1, func() {
		net.Start("f", 1000, []Use{{r, 1}}, 0, func(*Flow) { order = append(order, "flow") })
		sim.At(11, func() { order = append(order, "timer") }) // 1 + 1000/100, exact in float64
	})
	sim.Run()
	if len(order) != 2 || order[0] != "flow" || order[1] != "timer" {
		t.Fatalf("fired %v at t=%v, want the flow's completion before the later-scheduled timer", order, sim.Now())
	}
}

// TestSettleKeepsInstantCompletionAheadOfSameTimeTimer: a flow with no
// finite bottleneck completes at the instant it starts. Recomputing
// eagerly, its completion event was scheduled at the Start, ahead of a
// timer the same handler schedules for the same instant; the settle owed
// by the Start must therefore run before that timer fires, not only
// before the clock moves.
func TestSettleKeepsInstantCompletionAheadOfSameTimeTimer(t *testing.T) {
	for _, mode := range accountingModes {
		sim := des.New()
		net := NewNetwork(sim)
		mode.enable(net)
		wire := &Resource{Name: "unlimited", Capacity: math.Inf(1)}
		var order []string
		sim.At(1, func() {
			net.Start("f", 1000, []Use{{wire, 1}}, 0, func(*Flow) { order = append(order, "flow") })
			sim.After(0, func() { order = append(order, "timer") })
		})
		sim.Run()
		if len(order) != 2 || order[0] != "flow" || order[1] != "timer" || sim.Now() != 1 {
			t.Fatalf("%s: fired %v ending at t=%v, want the flow's completion, then the timer, both at 1", mode.name, order, sim.Now())
		}
	}
}

// TestSettleBeforeStaleCompletion: a timer ordered ahead of a flow's
// completion, at the same instant, starts a second flow on the flow's
// disk. The completion event is then stale — settle cancels it and
// schedules its replacement — so the kernel must settle before choosing
// it: each flow completes once, the first at the instant, the second a
// full transfer later.
func TestSettleBeforeStaleCompletion(t *testing.T) {
	for _, mode := range accountingModes {
		sim := des.New()
		net := NewNetwork(sim)
		mode.enable(net)
		disk := &Resource{Name: "disk", Capacity: 100}
		var done []string
		record := func(name string) func(*Flow) {
			return func(*Flow) { done = append(done, fmt.Sprintf("%s@%v", name, sim.Now())) }
		}
		sim.At(10, func() { net.Start("b", 1000, []Use{{disk, 1}}, 0, record("b")) })
		net.Start("a", 1000, []Use{{disk, 1}}, 0, record("a"))
		sim.Run()
		if got, want := strings.Join(done, " "), "a@10 b@20"; got != want {
			t.Fatalf("%s: completions %q, want %q", mode.name, got, want)
		}
	}
}

// bridged builds two disk-sharing groups joined by one bridge flow:
//
//	a1, a2 over (dA, x)   bridge over (x, y)   b1, b2 over (y, dB)
//
// and advances the clock so every flow carries banked progress.
func bridged(enable func(*Network)) (sim *des.Simulator, net *Network, dA *Resource, bridge *Flow, rest []*Flow) {
	sim = des.New()
	net = NewNetwork(sim)
	enable(net)
	dA = &Resource{Name: "dA", Capacity: 90, SeekPenalty: 0.3}
	dB := &Resource{Name: "dB", Capacity: 70, SeekPenalty: 0.2}
	x := &Resource{Name: "x", Capacity: 110}
	y := &Resource{Name: "y", Capacity: 130}
	start := func(uses ...Use) *Flow { return net.Start("f", 1e6, uses, 0, nil) }
	rest = append(rest,
		start(Use{dA, 1}, Use{x, 0.5}), start(Use{dA, 2}, Use{x, 1}),
		start(Use{y, 1}, Use{dB, 1}), start(Use{y, 0.25}, Use{dB, 2}))
	bridge = start(Use{x, 1}, Use{y, 1})
	sim.RunUntil(3)
	return
}

// TestSettlePaysBeforeRemoval: in one instant a flow starts on a component
// (which now owes a fill) and the bridge holding the component together is
// aborted. refresh lets the groups a removal does not dirty keep their
// rates, so the owed fill has to be paid on the pre-removal structure; the
// survivors' rates must equal, bit for bit, those of settling after every
// operation.
func TestSettlePaysBeforeRemoval(t *testing.T) {
	for _, mode := range accountingModes {
		run := func(eager bool) (rates []float64, paidAtAbort uint64) {
			_, net, dA, bridge, rest := bridged(mode.enable)
			rest = append(rest, net.Start("late", 1e6, []Use{{dA, 1}}, 0, nil))
			if eager {
				net.settle()
			}
			before := net.fills
			net.Abort(bridge)
			paidAtAbort = net.fills - before
			if net.Components() != 2 {
				t.Fatalf("%s: %d components after the bridge left, want 2", mode.name, net.Components())
			}
			for _, f := range rest {
				rates = append(rates, f.Rate())
			}
			return
		}
		deferred, paid := run(false)
		eager, _ := run(true)
		for i := range deferred {
			if deferred[i] != eager[i] {
				t.Fatalf("%s: survivor %d runs at %v deferred vs %v settling after every op", mode.name, i, deferred[i], eager[i])
			}
		}
		if paid != 1 {
			t.Fatalf("%s: the removal paid %d water-fills on the owing component, want exactly 1", mode.name, paid)
		}
	}
}

// TestSettleOncePerInstant: a completion whose callback starts R flows
// into one component costs one water-fill and one completion reschedule
// for the instant, not R+1 of each.
func TestSettleOncePerInstant(t *testing.T) {
	const R = 8
	for _, mode := range accountingModes {
		sim := des.New()
		net := NewNetwork(sim)
		mode.enable(net)
		core := &Resource{Name: "core", Capacity: 1000}
		disk := func() *Resource { return &Resource{Name: "disk", Capacity: 400} }
		net.Start("standing", 1e9, []Use{{disk(), 1}, {core, 1}}, 0, nil)
		var started []*Flow
		net.Start("first", 1000, []Use{{disk(), 1}, {core, 1}}, 0, func(*Flow) {
			for i := 0; i < R; i++ {
				started = append(started, net.Start("fetch", 1e6, []Use{{disk(), 1}, {core, 1}}, 0, nil))
			}
		})
		sim.RunUntil(sim.Now()) // the kernel looks at its queue: settle the two starts
		fills, scheds := net.fills, net.scheds
		if !sim.Step() || len(started) != R {
			t.Fatalf("%s: the first completion did not fire its callback", mode.name)
		}
		sim.RunUntil(sim.Now()) // end of the instant: the kernel looks at its queue
		if df, ds := net.fills-fills, net.scheds-scheds; df != 1 || ds != 1 {
			t.Fatalf("%s: completion + %d starts cost %d water-fills and %d reschedules, want 1 and 1", mode.name, R, df, ds)
		}
		if net.Components() != 1 {
			t.Fatalf("%s: %d components, want the one shared through the core", mode.name, net.Components())
		}
		for _, f := range started {
			if got, want := f.Rate(), 1000.0/(R+1); got != want {
				t.Fatalf("%s: fetch rate %v, want the core split %d ways = %v", mode.name, got, R+1, want)
			}
		}
	}
}

// TestSettleOncePerInstantAcrossEvents: R timers due at one instant, each
// starting a flow into one shared component, cost one water-fill and one
// completion reschedule for the instant — the settle is not paid between
// the timers, which were all ordered before the first start reserved its
// sequence number — and the rates it leaves are the R+1-way core split.
func TestSettleOncePerInstantAcrossEvents(t *testing.T) {
	const R = 8
	for _, mode := range accountingModes {
		sim := des.New()
		net := NewNetwork(sim)
		mode.enable(net)
		core := &Resource{Name: "core", Capacity: 1000}
		disk := func() *Resource { return &Resource{Name: "disk", Capacity: 400} }
		net.Start("standing", 1e9, []Use{{disk(), 1}, {core, 1}}, 0, nil)
		var started []*Flow
		for i := 0; i < R; i++ {
			sim.At(1, func() {
				started = append(started, net.Start("fetch", 1e6, []Use{{disk(), 1}, {core, 1}}, 0, nil))
			})
		}
		sim.RunUntil(0) // settle the standing flow's start
		fills, scheds := net.fills, net.scheds
		sim.RunUntil(1) // the R timers, then the end of the instant
		if len(started) != R {
			t.Fatalf("%s: %d timers fired, want %d", mode.name, len(started), R)
		}
		if df, ds := net.fills-fills, net.scheds-scheds; df != 1 || ds != 1 {
			t.Fatalf("%s: %d same-time starts cost %d water-fills and %d reschedules, want 1 and 1", mode.name, R, df, ds)
		}
		for _, f := range started {
			if got, want := f.Rate(), 1000.0/(R+1); got != want {
				t.Fatalf("%s: fetch rate %v, want the core split %d ways = %v", mode.name, got, R+1, want)
			}
		}
	}
}
