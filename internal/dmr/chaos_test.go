package dmr

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rcmp/internal/wire"
)

// startChaosCluster is startCluster with a fault injector interposed on
// every connection: the master serves as endpoint "master", worker i as
// "w<i>", matching the names the dmr runtime registers.
func startChaosCluster(t *testing.T, n, slots, blockRecords int, chaos *wire.Chaos, retry wire.RetryPolicy) *cluster {
	t.Helper()
	m, err := StartMaster(MasterConfig{SlotsPerWorker: slots, Timing: TestTiming(), Chaos: chaos, Retry: retry}, blockRecords)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{m: m}
	t.Cleanup(func() {
		chaos.HealAll()
		for _, w := range c.workers {
			w.Kill()
		}
		m.Close()
	})
	for i := 0; i < n; i++ {
		w, err := StartWorker(WorkerConfig{ID: i, MasterAddr: m.Addr(), Timing: TestTiming(), Chaos: chaos, Retry: retry})
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
	if got := len(m.AliveWorkers()); got != n {
		t.Fatalf("alive workers = %d, want %d", got, n)
	}
	return c
}

func TestTimingValidate(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name   string
		timing Timing
		ok     bool
	}{
		{"zero gets defaults", Timing{}, true},
		{"test timing", TestTiming(), true},
		{"production timing", DefaultTiming(), true},
		{"detection equals heartbeat", Timing{HeartbeatInterval: 10 * ms, DetectionTimeout: 10 * ms}, false},
		{"detection below heartbeat", Timing{HeartbeatInterval: 50 * ms, DetectionTimeout: 10 * ms}, false},
		{"only heartbeat set, above default detection", Timing{HeartbeatInterval: time.Hour}, false},
		{"tight but ordered", Timing{HeartbeatInterval: 2 * ms, DetectionTimeout: 3 * ms}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.timing.withDefaults().Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("invalid timing accepted")
				}
				if !strings.Contains(err.Error(), "must exceed") {
					t.Fatalf("unexpected error text: %v", err)
				}
			}
		})
	}

	// The same rejection must surface at cluster startup.
	bad := Timing{HeartbeatInterval: 20 * ms, DetectionTimeout: 20 * ms}
	if _, err := StartMaster(MasterConfig{SlotsPerWorker: 2, Timing: bad}, 40); err == nil {
		t.Fatal("StartMaster accepted DetectionTimeout == HeartbeatInterval")
	}
	if _, err := StartWorker(WorkerConfig{ID: 0, MasterAddr: "127.0.0.1:1", Timing: bad}); err == nil {
		t.Fatal("StartWorker accepted DetectionTimeout == HeartbeatInterval")
	}
}

// TestPartitionShorterThanDetectionCompletes pins graceful degradation: a
// one-way partition that heals before the detection timeout stalls
// heartbeats and in-flight replies but must cause NO recomputation — the
// chain completes failure-free with correct output.
func TestPartitionShorterThanDetectionCompletes(t *testing.T) {
	want := referenceDigests(t, 4, 2, 40, baseCfg)

	chaos := &wire.Chaos{Seed: 5}
	c := startChaosCluster(t, 4, 2, 40, chaos, wire.RetryPolicy{})
	cfg := baseCfg
	cfg.AfterJob = func(job int) {
		if job != 1 {
			return
		}
		// Well under TestTiming's 150ms detection window.
		chaos.Partition("w0", "master")
		time.AfterFunc(60*time.Millisecond, func() { chaos.Heal("w0", "master") })
	}
	d := runChain(t, c, cfg)
	if d.RecoveryEpisodes != 0 {
		t.Fatalf("RecoveryEpisodes = %d, want 0: a healed sub-detection partition must not trigger recovery", d.RecoveryEpisodes)
	}
	if len(c.m.FailedNodes()) != 0 {
		t.Fatalf("FailedNodes = %v, want none", c.m.FailedNodes())
	}
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
}

// TestPartitionLongerThanDetectionTriggersRecovery is the complementary
// pin: a partition that outlives the detection timeout looks exactly like a
// death — the master declares the worker dead, recomputes its data, and
// the chain still produces correct output. The healed worker stays
// excluded (dead-ID rejoin is refused).
func TestPartitionLongerThanDetectionTriggersRecovery(t *testing.T) {
	want := referenceDigests(t, 4, 2, 40, baseCfg)

	chaos := &wire.Chaos{Seed: 5}
	c := startChaosCluster(t, 4, 2, 40, chaos, wire.RetryPolicy{})
	cfg := baseCfg
	cfg.AfterJob = func(job int) {
		if job != 1 {
			return
		}
		chaos.Partition("w0", "master")
		go func() {
			// Heal once the master has given up on w0, so replies stuck in
			// the partition drain instead of wedging task calls forever.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if c.m.FailedNodes()[0] {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			chaos.Heal("w0", "master")
		}()
	}
	d := runChain(t, c, cfg)
	if d.RecoveryEpisodes == 0 {
		t.Fatal("RecoveryEpisodes = 0: an over-detection partition must trigger recovery")
	}
	if !c.m.FailedNodes()[0] {
		t.Fatalf("FailedNodes = %v, want w0 declared dead", c.m.FailedNodes())
	}
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
}

// TestPartitionDuringShuffleRidesOut blocks a worker-to-worker data link —
// the shuffle path, not the control path — for a sub-detection window mid-
// chain. Fetches stall until the heal; nothing is recomputed and the
// output is untouched.
func TestPartitionDuringShuffleRidesOut(t *testing.T) {
	want := referenceDigests(t, 4, 2, 40, baseCfg)

	chaos := &wire.Chaos{Seed: 6}
	c := startChaosCluster(t, 4, 2, 40, chaos, wire.RetryPolicy{})
	cfg := baseCfg
	cfg.AfterJob = func(job int) {
		if job != 1 {
			return
		}
		// Both directions of one worker pair: job 2's shuffle crosses it.
		chaos.Partition("w1", "w2")
		chaos.Partition("w2", "w1")
		time.AfterFunc(60*time.Millisecond, func() {
			chaos.Heal("w1", "w2")
			chaos.Heal("w2", "w1")
		})
	}
	d := runChain(t, c, cfg)
	if d.RecoveryEpisodes != 0 {
		t.Fatalf("RecoveryEpisodes = %d, want 0", d.RecoveryEpisodes)
	}
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
}

// TestResetDuringCommitRetriesThrough runs a whole chain over connections
// that RST mid-stream every few frames. With the retry budget armed, every
// layer — input loading, task dispatch, shuffle, output commit, digest
// collection — must ride through the resets and produce byte-identical
// output with zero recomputation.
func TestResetDuringCommitRetriesThrough(t *testing.T) {
	want := referenceDigests(t, 4, 2, 40, baseCfg)

	chaos := &wire.Chaos{Seed: 9, ResetAfter: 12}
	c := startChaosCluster(t, 4, 2, 40, chaos, wire.RetryPolicy{Max: 5, Seed: 9})
	d := runChain(t, c, baseCfg)
	if d.RecoveryEpisodes != 0 {
		t.Fatalf("RecoveryEpisodes = %d, want 0: resets are transport faults, not deaths", d.RecoveryEpisodes)
	}
	if len(c.m.FailedNodes()) != 0 {
		t.Fatalf("FailedNodes = %v, want none", c.m.FailedNodes())
	}
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
}

// TestHeartbeatRedialAfterClientFailure pins the re-dial fix: when the
// pool's master client dies (here: closed underneath it, the same poisoned
// state a transport fault leaves behind), the heartbeat loop must dial a
// fresh client instead of erroring forever — before the fix the master
// declared the worker dead within one detection timeout.
func TestHeartbeatRedialAfterClientFailure(t *testing.T) {
	c := startCluster(t, 2, 2, 40)
	w := c.workers[0]

	cl, err := w.peers.Get(w.cfg.MasterAddr)
	if err != nil {
		t.Fatalf("worker has no master client: %v", err)
	}
	cl.Close()

	time.Sleep(2 * TestTiming().DetectionTimeout)
	if c.m.FailedNodes()[0] {
		t.Fatal("master declared w0 dead: heartbeat loop never re-dialed its poisoned client")
	}
	if got := len(c.m.AliveWorkers()); got != 2 {
		t.Fatalf("alive workers = %d, want 2", got)
	}
}

// TestKillDoesNotWaitOnABlockedHeartbeat: a heartbeat stuck in a write on
// a partitioned master link, with retries armed, must not hold Kill back.
// The death happens when Kill is called, whatever the heartbeat is doing.
func TestKillDoesNotWaitOnABlockedHeartbeat(t *testing.T) {
	blocked := make(chan struct{})
	var once sync.Once
	chaos := &wire.Chaos{Seed: 5, Trace: func(ev wire.TraceEvent) {
		if ev.Op == "block" && strings.HasPrefix(ev.Conn, "w0->master#") {
			once.Do(func() { close(blocked) })
		}
	}}
	c := startChaosCluster(t, 2, 1, 40, chaos, wire.RetryPolicy{Max: 3, Seed: 5})
	chaos.Partition("w0", "master")
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat blocked on the partitioned link")
	}
	done := make(chan struct{})
	go func() { c.workers[0].Kill(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Kill waited on a heartbeat blocked by a partition")
	}
}
