package cluster

import (
	"testing"

	"rcmp/internal/des"
)

func TestValidate(t *testing.T) {
	good := STICConfig(1, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("STIC config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.MapSlots = 0 },
		func(c *Config) { c.ReduceSlots = -1 },
		func(c *Config) { c.DiskBW = 0 },
		func(c *Config) { c.NICBW = -5 },
		func(c *Config) { c.Oversubscription = 0.5 },
	}
	for i, mutate := range cases {
		cfg := STICConfig(1, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(des.New(), Config{})
}

func TestTopology(t *testing.T) {
	sim := des.New()
	c := New(sim, STICConfig(2, 2))
	if c.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", c.NumNodes())
	}
	if got := len(c.Alive()); got != 10 {
		t.Fatalf("Alive = %d, want 10", got)
	}
	wantCore := 10 * 1250.0 * MB / 4
	if c.Core.Capacity != wantCore {
		t.Fatalf("core capacity %v, want %v", c.Core.Capacity, wantCore)
	}
}

func TestFailure(t *testing.T) {
	sim := des.New()
	c := New(sim, STICConfig(1, 1))
	sim.At(15, func() { c.Fail(3) })
	sim.Run()
	if c.NumAlive() != 9 {
		t.Fatalf("NumAlive = %d after failure, want 9", c.NumAlive())
	}
	n := c.Node(3)
	if !n.Failed() {
		t.Fatal("node 3 not marked failed")
	}
	for _, id := range c.Alive() {
		if id == 3 {
			t.Fatal("failed node listed as alive")
		}
	}
	// Idempotent.
	c.Fail(3)
	if c.NumAlive() != 9 {
		t.Fatal("double Fail changed alive count")
	}
}

func TestReadAndWriteUses(t *testing.T) {
	c := New(des.New(), STICConfig(1, 1))
	if got := c.ReadUsesScratch(5, 5); len(got) != 1 || got[0].Weight != 1 {
		t.Fatalf("local read uses = %+v", got)
	}
	if got := c.ReadUsesScratch(0, 5); len(got) != 4 {
		t.Fatalf("remote read crosses %d resources, want 4 (no dst disk)", len(got))
	}
	if got := c.WriteUsesScratch(5, 5); len(got) != 1 {
		t.Fatalf("local write uses = %+v", got)
	}
	if got := c.WriteUsesScratch(5, 0); len(got) != 4 {
		t.Fatalf("remote write crosses %d resources, want 4 (no src disk)", len(got))
	}
}

func TestDCOConfig(t *testing.T) {
	cfg := DCOConfig(60, 1, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DCO config invalid: %v", err)
	}
	if cfg.Nodes != 60 {
		t.Fatalf("nodes = %d", cfg.Nodes)
	}
	if cfg.TaskStartup >= STICConfig(1, 1).TaskStartup {
		t.Fatal("DCO (JVM reuse) should have lower task startup than STIC")
	}
}
