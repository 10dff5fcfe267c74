package des

import (
	"fmt"
	"strings"
	"testing"
)

// settle_test.go pins the settler contract: when the kernel must have run
// an owing settler, whatever the settler answers about the events it could
// run behind.

// scriptedSettler is a settler whose answer to "must you settle before
// this event" is scripted by the test. Each settle is logged with the
// clock it saw, then runs the test's extra work (cancelling its stale
// event, scheduling its owed one).
type scriptedSettler struct {
	s      *Simulator
	log    *[]string
	before func(next *Event) bool
	work   func()
	asked  []*Event
}

func (x *scriptedSettler) Settle() {
	*x.log = append(*x.log, fmt.Sprintf("settle@%v", x.s.Now()))
	if x.work != nil {
		x.work()
	}
}

func (x *scriptedSettler) SettleBefore(next *Event) bool {
	x.asked = append(x.asked, next)
	return x.before(next)
}

func never(*Event) bool  { return false }
func always(*Event) bool { return true }

func logEvent(s *Simulator, log *[]string, name string) func() {
	return func() { *log = append(*log, fmt.Sprintf("%s@%v", name, s.Now())) }
}

// indexOf returns where entry sits in log, -1 if absent.
func indexOf(log []string, entry string) int {
	for i, e := range log {
		if e == entry {
			return i
		}
	}
	return -1
}

// TestSettlerRunsBeforeClockAdvance: a settler that never asks to precede
// an event still runs, once and at the instant that owed it, before the
// clock moves to the next event's time.
func TestSettlerRunsBeforeClockAdvance(t *testing.T) {
	s := New()
	var log []string
	x := &scriptedSettler{s: s, log: &log, before: never}
	s.At(1, func() {
		logEvent(s, &log, "a")()
		s.BeforeNext(x)
	})
	s.At(1, logEvent(s, &log, "b"))
	s.At(2, logEvent(s, &log, "c"))
	s.Run()
	settle, c := indexOf(log, "settle@1"), indexOf(log, "c@2")
	if settle < 0 || c < 0 || settle > c || strings.Count(strings.Join(log, " "), "settle") != 1 {
		t.Fatalf("log %v: want exactly one settle, at time 1, before c@2", log)
	}
}

// TestSettlerRunsBeforeItsStaleEvent: the settler's own pending event is
// stale once it owes; the kernel must settle before choosing it, so the
// settle can cancel it and schedule the replacement under the sequence
// number reserved when the work became owed.
func TestSettlerRunsBeforeItsStaleEvent(t *testing.T) {
	s := New()
	var log []string
	var stale *Event
	var seq uint64
	x := &scriptedSettler{s: s, log: &log, before: func(e *Event) bool { return e == stale }}
	x.work = func() {
		s.Cancel(stale)
		stale = nil
		s.AtTimerSeq(1, timerFunc(logEvent(s, &log, "owed")), seq)
	}
	s.At(1, func() {
		logEvent(s, &log, "a")()
		seq = s.ReserveSeq()
		s.BeforeNext(x)
	})
	stale = s.At(1, func() { t.Fatal("the settler's stale event fired") })
	s.At(2, logEvent(s, &log, "c"))
	s.Run()
	if got, want := strings.Join(log, " "), "a@1 settle@1 owed@1 c@2"; got != want {
		t.Fatalf("log %q, want %q", got, want)
	}
}

// TestSettlerRunsBeforeLaterOrderedSameTimeEvent: a same-time event
// ordered after the settler's reservation could be preceded by the event
// the settle schedules under that reservation, so the settler must run
// first — and the kernel must re-inspect its queue after settling, so the
// owed event fires ahead of it.
func TestSettlerRunsBeforeLaterOrderedSameTimeEvent(t *testing.T) {
	s := New()
	var log []string
	var later *Event
	var seq uint64
	x := &scriptedSettler{s: s, log: &log, before: func(e *Event) bool { return e == later }}
	x.work = func() { s.AtTimerSeq(1, timerFunc(logEvent(s, &log, "owed")), seq) }
	s.At(1, func() {
		logEvent(s, &log, "a")()
		seq = s.ReserveSeq()
		s.BeforeNext(x)
		later = s.At(1, logEvent(s, &log, "later"))
	})
	s.Run()
	if got, want := strings.Join(log, " "), "a@1 settle@1 owed@1 later@1"; got != want {
		t.Fatalf("log %q, want %q", got, want)
	}
}

// TestSettlerRunsOnEmptyQueue: with nothing left to fire, Run settles
// before returning, and RunUntil settles before it moves the clock to its
// horizon — whether the queue is empty or holds only later events.
func TestSettlerRunsOnEmptyQueue(t *testing.T) {
	drive := map[string]func(*Simulator){
		"Run":                  func(s *Simulator) { s.Run() },
		"RunUntil/empty":       func(s *Simulator) { s.RunUntil(5) },
		"RunUntil/beyond":      func(s *Simulator) { s.At(7, func() {}); s.RunUntil(5) },
		"Step/then-empty-Step": func(s *Simulator) { s.Step(); s.Step() },
	}
	for name, run := range drive {
		s := New()
		var log []string
		x := &scriptedSettler{s: s, log: &log, before: never}
		s.At(1, func() { s.BeforeNext(x) })
		run(s)
		if got, want := strings.Join(log, " "), "settle@1"; got != want {
			t.Fatalf("%s: log %q, want %q (one settle, before the clock left 1)", name, got, want)
		}
	}
}

// TestAlwaysBeforeSettlerSettlesPerEvent: a settler that answers "before"
// for every event keeps the settle-before-every-event behaviour, even
// between same-time events ordered ahead of anything it reserved.
func TestAlwaysBeforeSettlerSettlesPerEvent(t *testing.T) {
	s := New()
	var log []string
	x := &scriptedSettler{s: s, log: &log, before: always}
	s.At(1, func() {
		logEvent(s, &log, "a")()
		s.BeforeNext(x)
	})
	s.At(1, func() {
		logEvent(s, &log, "b")()
		s.BeforeNext(x)
	})
	s.At(1, logEvent(s, &log, "c"))
	s.Run()
	if got, want := strings.Join(log, " "), "a@1 settle@1 b@1 settle@1 c@1"; got != want {
		t.Fatalf("log %q, want %q", got, want)
	}
}

// TestDeferringSettlerRunsPastEarlierOrderedEvent: a settler owing work
// reserved at sequence number seq lets a same-time event ordered before
// seq fire first, then settles ahead of the first event ordered after it
// — one settle for the instant where settling before every event would
// have paid it twice.
func TestDeferringSettlerRunsPastEarlierOrderedEvent(t *testing.T) {
	s := New()
	var log []string
	var seq uint64
	x := &scriptedSettler{s: s, log: &log, before: func(e *Event) bool { return e.Seq() > seq }}
	s.At(1, func() {
		logEvent(s, &log, "a")()
		seq = s.ReserveSeq()
		s.BeforeNext(x)
		if e := s.At(1, logEvent(s, &log, "after")); e.Seq() <= seq {
			t.Fatalf("event scheduled after the reservation has seq %d <= %d", e.Seq(), seq)
		}
	})
	b := s.At(1, logEvent(s, &log, "b"))
	s.At(2, logEvent(s, &log, "c"))
	s.Run()
	if got, want := strings.Join(log, " "), "a@1 b@1 settle@1 after@1 c@2"; got != want {
		t.Fatalf("log %q, want %q", got, want)
	}
	if len(x.asked) != 2 || x.asked[0] != b {
		t.Fatalf("settler asked about %d events, want 2: b (let go) and the later one (settled before)", len(x.asked))
	}
}
