package des

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v, want 3", s.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var at Time
	s.After(2, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Fatalf("nested After fired at %v, want 5", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var e *Event
	e = s.At(2, func() { fired = true })
	s.At(1, func() { s.Cancel(e) })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestCancelTwiceAndAfterFire(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.Run()
	s.Cancel(e) // after fire: no-op
	s.Cancel(e)
	e2 := s.At(2, func() {})
	s.Cancel(e2)
	s.Cancel(e2) // double cancel: no-op
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []Time
	for _, tm := range []Time{1, 2, 3, 4} {
		tm := tm
		s.At(tm, func() { got = append(got, tm) })
	}
	s.RunUntil(2.5)
	if len(got) != 2 {
		t.Fatalf("fired %v, want events at 1,2 only", got)
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock %v, want 2.5", s.Now())
	}
	s.Run()
	if len(got) != 4 {
		t.Fatalf("remaining events did not fire: %v", got)
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func() { count++; s.Stop() })
	s.At(2, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("count = %d after Stop, want 1", count)
	}
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		s := New()
		n := 200
		times := make([]Time, n)
		var got []Time
		for i := 0; i < n; i++ {
			times[i] = Time(rng.Intn(50))
			tm := times[i]
			s.At(tm, func() { got = append(got, tm) })
		}
		s.Run()
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("trial %d: events fired out of order", trial)
		}
		if len(got) != n {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), n)
		}
	}
}

// TestPendingLiveCounter is the regression test for O(1) Pending: it must
// track every way an event leaves the queue (firing, cancellation,
// rescheduling) without ever scanning the heap for cancelled entries.
func TestPendingLiveCounter(t *testing.T) {
	s := New()
	var events []*Event
	for i := 0; i < 10; i++ {
		events = append(events, s.At(Time(i+1), func() {}))
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d after 10 At, want 10", s.Pending())
	}
	s.Cancel(events[3])
	s.Cancel(events[3]) // double cancel must not double-decrement
	if s.Pending() != 9 {
		t.Fatalf("Pending = %d after cancel, want 9", s.Pending())
	}
	s.Reschedule(events[7], 20) // moving an event must not change the count
	if s.Pending() != 9 {
		t.Fatalf("Pending = %d after reschedule, want 9", s.Pending())
	}
	fired := 0
	for s.Step() {
		fired++
		if want := 9 - fired; s.Pending() != want {
			t.Fatalf("Pending = %d after %d fires, want %d", s.Pending(), fired, want)
		}
	}
	if fired != 9 {
		t.Fatalf("fired %d events, want 9", fired)
	}
	s.Cancel(events[0]) // cancel after fire: no-op, no underflow
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d at drain, want 0", s.Pending())
	}
}

// TestPendingIsConstantTime checks Pending stays exact under a large
// randomized schedule/cancel/fire mix — the pattern that made the old
// O(n)-scan Pending a per-event hot spot.
func TestPendingIsConstantTime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	var liveEvents []*Event
	want := 0
	for i := 0; i < 5000; i++ {
		switch {
		case len(liveEvents) > 0 && rng.Intn(3) == 0:
			j := rng.Intn(len(liveEvents))
			s.Cancel(liveEvents[j])
			liveEvents = append(liveEvents[:j], liveEvents[j+1:]...)
			want--
		default:
			liveEvents = append(liveEvents, s.At(s.Now()+Time(rng.Float64()*10), func() {}))
			want++
		}
		if rng.Intn(5) == 0 && s.Step() {
			want--
			// The fired event is somewhere in liveEvents; drop it by scanning
			// for the fired flag rather than tracking pop order.
			for j, e := range liveEvents {
				if e.fired {
					liveEvents = append(liveEvents[:j], liveEvents[j+1:]...)
					break
				}
			}
		}
		if s.Pending() != want {
			t.Fatalf("step %d: Pending = %d, want %d", i, s.Pending(), want)
		}
	}
}

func TestReschedule(t *testing.T) {
	s := New()
	var got []string
	e := s.At(1, func() { got = append(got, "moved") })
	s.At(2, func() { got = append(got, "fixed") })
	s.Reschedule(e, 3)
	s.Run()
	if len(got) != 2 || got[0] != "fixed" || got[1] != "moved" {
		t.Fatalf("order %v, want [fixed moved]", got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v, want 3", s.Now())
	}
}

// TestRescheduleTieOrder pins the cancel+push parity: a rescheduled event
// landing on the same time as an existing one must fire after it, exactly
// as a freshly scheduled replacement would.
func TestRescheduleTieOrder(t *testing.T) {
	s := New()
	var got []string
	e := s.At(1, func() { got = append(got, "rescheduled") })
	s.At(5, func() { got = append(got, "older") })
	s.Reschedule(e, 5) // fresh seq: must now sort after the t=5 event
	s.Run()
	if len(got) != 2 || got[0] != "older" || got[1] != "rescheduled" {
		t.Fatalf("tie order %v, want [older rescheduled]", got)
	}
}

func TestRescheduleMisusePanics(t *testing.T) {
	// Each case gets a fresh simulator: events are recycled through the
	// free list, so a stale handle from one case could alias a live event
	// allocated by the next and defeat the panic under test.
	cases := map[string]func(t *testing.T){
		"fired": func(t *testing.T) {
			s := New()
			e := s.At(1, func() {})
			s.Run()
			s.Reschedule(e, 2)
		},
		"cancelled": func(t *testing.T) {
			s := New()
			c := s.At(3, func() {})
			s.Cancel(c)
			s.Reschedule(c, 4)
		},
		"past": func(t *testing.T) {
			s := New()
			s.At(1, func() {})
			p := s.At(3, func() {})
			s.RunUntil(2) // advance the clock past the target time
			s.Reschedule(p, 0)
		},
		"nil": func(t *testing.T) {
			s := New()
			s.Reschedule(nil, 2)
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reschedule(%s) did not panic", name)
				}
			}()
			fn(t)
		}()
	}
}

// ---- Event recycling (free list) ----

// TestRecycleReusesEvents pins the free-list mechanics: a fired or
// cancelled event's struct is handed back to the next At, so steady-state
// scheduling cycles one allocation's worth of memory.
func TestRecycleReusesEvents(t *testing.T) {
	s := New()
	e1 := s.At(1, func() {})
	s.Run()
	e2 := s.At(2, func() {})
	if e1 != e2 {
		t.Fatal("fired event was not recycled into the next At")
	}
	s.Cancel(e2)
	e3 := s.At(3, func() {})
	if e3 != e2 {
		t.Fatal("cancelled event was not recycled into the next At")
	}
	s.Run()
}

// TestCancelThenRecycleNeverFiresStaleCallback drives the lifecycle the
// pooling contract must survive: cancel an event, let its struct be
// recycled into a new one, and check that only the new callback fires —
// the recycled struct must never run the cancelled event's function.
func TestCancelThenRecycleNeverFiresStaleCallback(t *testing.T) {
	s := New()
	stale, fresh := 0, 0
	e := s.At(1, func() { stale++ })
	s.Cancel(e)
	reused := s.At(1, func() { fresh++ })
	if reused != e {
		t.Fatal("expected the cancelled event to be recycled")
	}
	s.Run()
	if stale != 0 {
		t.Fatalf("stale callback fired %d times after cancel+recycle", stale)
	}
	if fresh != 1 {
		t.Fatalf("fresh callback fired %d times, want 1", fresh)
	}
}

// TestRescheduleThenRecycle checks the other recycle path: an event that
// was rescheduled, fired, and recycled must carry the new callback only.
func TestRescheduleThenRecycle(t *testing.T) {
	s := New()
	var order []string
	e := s.At(1, func() { order = append(order, "first") })
	s.Reschedule(e, 4)
	s.Run() // fires "first" at t=4, recycles e
	reused := s.AtTimer(5, timerFunc(func() { order = append(order, "second") }))
	if reused != e {
		t.Fatal("expected the fired event to be recycled")
	}
	s.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order %v, want [first second]", order)
	}
}

// TestRecycleClearsCallback is the white-box guarantee behind the two
// tests above: an event on the free list holds no callback at all.
func TestRecycleClearsCallback(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.Cancel(e)
	if e.fn != nil || e.tm != nil {
		t.Fatal("recycled event still holds a callback")
	}
	f := s.At(1, func() {})
	s.Run()
	if f.fn != nil || f.tm != nil {
		t.Fatal("fired event still holds a callback after recycling")
	}
}

// timerFunc adapts a func to Timer for tests.
type timerFunc func()

func (f timerFunc) Fire() { f() }

// TestTimerPath checks AtTimer/AfterTimer dispatch and ordering parity
// with the closure path.
func TestTimerPath(t *testing.T) {
	s := New()
	var got []string
	s.AtTimer(2, timerFunc(func() { got = append(got, "timer@2") }))
	s.At(1, func() { got = append(got, "fn@1") })
	s.AfterTimer(3, timerFunc(func() { got = append(got, "timer@3") }))
	s.Run()
	want := []string{"fn@1", "timer@2", "timer@3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestReset checks a reused simulator behaves exactly like a fresh one:
// clock at zero, restarted sequence numbering (tie order), discarded
// stale events.
func TestReset(t *testing.T) {
	s := New()
	leftover := 0
	s.At(1, func() {})
	s.At(50, func() { leftover++ }) // never reached
	s.RunUntil(2)
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Processed != 0 {
		t.Fatalf("Reset left now=%v pending=%d processed=%d", s.Now(), s.Pending(), s.Processed)
	}
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order after Reset: %v", got)
		}
	}
	if leftover != 0 {
		t.Fatal("event scheduled before Reset fired after it")
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Processed != 5 {
		t.Fatalf("Processed = %d, want 5", s.Processed)
	}
}

// settleFunc adapts a closure to a Settler that settles before every
// event.
type settleFunc func()

func (f settleFunc) Settle() { f() }

func (f settleFunc) SettleBefore(*Event) bool { return true }

// TestBeforeNextRunsAheadOfEveryQueueInspection checks the settle hook: a
// registered settler runs exactly once, before Step or RunUntil looks at
// the queue, and what it schedules takes part in that very inspection.
func TestBeforeNextRunsAheadOfEveryQueueInspection(t *testing.T) {
	inspect := map[string]func(*Simulator){
		"Step":     func(s *Simulator) { s.Step() },
		"RunUntil": func(s *Simulator) { s.RunUntil(1) },
	}
	for name, look := range inspect {
		s := New()
		settled, fired := 0, false
		s.At(2, func() {})
		s.BeforeNext(settleFunc(func() {
			settled++
			s.At(1, func() { fired = true })
		}))
		if settled != 0 {
			t.Fatalf("%s: settler ran at registration", name)
		}
		look(s)
		if settled != 1 {
			t.Fatalf("%s: settler ran %d times before the queue was inspected, want 1", name, settled)
		}
		if !fired {
			t.Fatalf("%s: the event the settler scheduled at 1 did not fire ahead of the one at 2", name)
		}
		s.Run()
		if !fired || settled != 1 {
			t.Fatalf("%s: fired=%v settled=%d after Run, want the settler's event fired and no second settle", name, fired, settled)
		}
	}
}

// TestBeforeNextSettlesBetweenSameTimeEvents: a settler registered by one
// handler runs before the next event fires, even at the same instant.
func TestBeforeNextSettlesBetweenSameTimeEvents(t *testing.T) {
	s := New()
	var got []string
	s.At(1, func() {
		got = append(got, "a")
		s.BeforeNext(settleFunc(func() { got = append(got, "settle") }))
	})
	s.At(1, func() { got = append(got, "b") })
	s.Run()
	if want := "a settle b"; strings.Join(got, " ") != want {
		t.Fatalf("order %v, want %q", got, want)
	}
}

// TestAtTimerSeqOrdersByReservation: an event scheduled late under a
// sequence number reserved early fires where the reservation was made
// among same-time events, and reserving consumes the number (later events
// order after it).
func TestAtTimerSeqOrdersByReservation(t *testing.T) {
	s := New()
	var got []string
	s.At(5, func() { got = append(got, "first") })
	seq := s.ReserveSeq()
	s.At(5, func() { got = append(got, "third") })
	s.AtTimerSeq(5, timerFunc(func() { got = append(got, "reserved") }), seq)
	s.Run()
	if want := "first reserved third"; strings.Join(got, " ") != want {
		t.Fatalf("order %v, want %q", got, want)
	}
}

// TestResetDropsSettlers: a settler registered before Reset never runs.
func TestResetDropsSettlers(t *testing.T) {
	s := New()
	s.BeforeNext(settleFunc(func() { t.Fatal("settler survived Reset") }))
	s.Reset()
	s.At(1, func() {})
	s.Run()
}
