package dmr

import (
	"strings"
	"testing"
	"time"
)

func TestAccessorsAndTeardown(t *testing.T) {
	c := startCluster(t, 2, 1, 20)
	d := runChain(t, c, ChainConfig{Jobs: 2, NumReducers: 3, RecordsPerPartition: 40, Seed: 61})
	_ = d

	w := c.workers[0]
	if w.ID() != 0 {
		t.Fatalf("ID = %d", w.ID())
	}
	if w.RemoteReads() < 0 {
		t.Fatal("negative remote reads")
	}

	loss := &DataLossError{Victims: []int{3, 5}}
	if !strings.Contains(loss.Error(), "[3 5]") {
		t.Fatalf("DataLossError text %q", loss.Error())
	}

	// Kill is idempotent.
	w.Kill()
	w.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for !c.m.FailedNodes()[0] {
		if time.Now().After(deadline) {
			t.Fatal("killed worker never declared dead")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Closing the master twice is safe; runs are rejected afterwards.
	c.m.Close()
	c.m.Close()
	if _, err := c.m.RunJob(JobSpec{ID: 1, InFile: "x", OutFile: "y", NumReducers: 1}); err == nil {
		t.Fatal("RunJob on closed master succeeded")
	}
}

func TestTimingDefaults(t *testing.T) {
	var zero Timing
	d := zero.withDefaults()
	def := DefaultTiming()
	if d != def {
		t.Fatalf("withDefaults() = %+v, want %+v", d, def)
	}
	custom := Timing{HeartbeatInterval: time.Second}
	got := custom.withDefaults()
	if got.HeartbeatInterval != time.Second {
		t.Fatal("explicit heartbeat overridden")
	}
	if got.DetectionTimeout != def.DetectionTimeout {
		t.Fatal("unset detection timeout not defaulted")
	}
}
