package flow

import (
	"testing"

	"rcmp/internal/des"
)

func TestFlowAccessors(t *testing.T) {
	sim := des.New()
	net := NewNetwork(sim)
	r := &Resource{Name: "disk", Capacity: 100}
	f := net.Start("xfer", 500, []Use{{R: r, Weight: 1}}, 0, nil)
	if f.Size() != 500 {
		t.Fatalf("Size = %g, want 500", f.Size())
	}
	if f.Rate() != 100 {
		t.Fatalf("Rate = %g, want full capacity 100", f.Rate())
	}
	sim.Run()
	if f.Done() != 500 {
		t.Fatalf("Done = %g after completion, want 500", f.Done())
	}
}

func TestEffectivePenaltyCap(t *testing.T) {
	r := &Resource{Capacity: 120, SeekPenalty: 0.5, PenaltyCap: 1.0}
	if got := r.Effective(0); got != 120 {
		t.Fatalf("Effective(0) = %g, want capacity", got)
	}
	if got := r.Effective(1); got != 120 {
		t.Fatalf("Effective(1) = %g, want no penalty for one flow", got)
	}
	// 3 concurrent flows: penalty 0.5*2 = 1.0, exactly at the cap.
	if got := r.Effective(3); got != 60 {
		t.Fatalf("Effective(3) = %g, want 60", got)
	}
	// 9 flows would be penalty 4.0 but the cap holds it at 1.0.
	if got := r.Effective(9); got != 60 {
		t.Fatalf("Effective(9) = %g, want capped 60", got)
	}
}
