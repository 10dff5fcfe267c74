package dmr

import (
	"testing"
	"time"
)

// startClusterWithStraggler builds a cluster whose last worker delays every
// task (a slow-disk straggler).
func startClusterWithStraggler(t *testing.T, n, slots, blockRecords int, delay time.Duration) *cluster {
	t.Helper()
	m, err := StartMaster(MasterConfig{SlotsPerWorker: slots, Timing: TestTiming()}, blockRecords)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{m: m}
	t.Cleanup(func() {
		for _, w := range c.workers {
			w.Kill()
		}
		m.Close()
	})
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{ID: i, MasterAddr: m.Addr(), Timing: TestTiming()}
		if i == n-1 {
			cfg.TaskDelay = delay
		}
		w, err := StartWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
	return c
}

func TestSpeculationDuplicatesStragglers(t *testing.T) {
	cfg := ChainConfig{
		Jobs: 3, NumReducers: 6, RecordsPerPartition: 120, Seed: 53,
		Speculation: true,
	}
	// Reference from a healthy cluster: speculation must not change data.
	want := referenceDigests(t, 5, 2, 40, cfg)

	c := startClusterWithStraggler(t, 5, 2, 40, 150*time.Millisecond)
	d := runChain(t, c, cfg)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)

	// With a 150 ms straggler against ~ms-scale peers, at least one mapper
	// on the slow worker must have been duplicated, and the duplicate must
	// have won at least once (wasted < launched).
	if d.SpeculativeLaunched == 0 {
		t.Fatal("no speculative mappers launched despite a straggler worker")
	}
	if d.SpeculativeWasted >= d.SpeculativeLaunched {
		t.Fatalf("speculation never won: launched=%d wasted=%d",
			d.SpeculativeLaunched, d.SpeculativeWasted)
	}
	t.Logf("speculative launched=%d wasted=%d", d.SpeculativeLaunched, d.SpeculativeWasted)
}

func TestSpeculationOffLaunchesNothing(t *testing.T) {
	cfg := ChainConfig{Jobs: 3, NumReducers: 6, RecordsPerPartition: 120, Seed: 53}
	c := startClusterWithStraggler(t, 5, 2, 40, 50*time.Millisecond)
	d := runChain(t, c, cfg)
	if d.SpeculativeLaunched != 0 || d.SpeculativeWasted != 0 {
		t.Fatalf("speculation disabled but launched=%d wasted=%d",
			d.SpeculativeLaunched, d.SpeculativeWasted)
	}
}

func TestSpeculationWithFailureStaysExact(t *testing.T) {
	cfg := ChainConfig{
		Jobs: 4, NumReducers: 6, RecordsPerPartition: 120, Seed: 59,
		Split: true, Speculation: true,
	}
	want := referenceDigests(t, 5, 2, 40, cfg)

	c := startClusterWithStraggler(t, 5, 2, 40, 100*time.Millisecond)
	run := cfg
	run.AfterJob = func(job int) {
		if job == 2 {
			c.killAndAwaitDetection(t, 0) // kill a healthy worker, keep the straggler
		}
	}
	d := runChain(t, c, run)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
}
