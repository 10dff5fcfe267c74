package dmr

import (
	"errors"
	"testing"
	"time"

	"rcmp/internal/metrics"
	"rcmp/internal/workload"
)

// cluster is a test harness: one master plus n workers on loopback TCP.
type cluster struct {
	m       *Master
	workers []*Worker
}

func startCluster(t *testing.T, n, slots, blockRecords int) *cluster {
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
		w, err := StartWorker(WorkerConfig{ID: i, MasterAddr: m.Addr(), Timing: TestTiming()})
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

// killAndAwaitDetection kills worker id and blocks until the master has
// declared it dead (the synchronous "failure between jobs" injection).
func (c *cluster) killAndAwaitDetection(t *testing.T, id int) {
	t.Helper()
	c.workers[id].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.m.FailedNodes()[id] {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("master did not detect death of worker %d", id)
}

// runChain builds a driver, loads input, and runs the chain.
func runChain(t *testing.T, c *cluster, cfg ChainConfig) *Driver {
	t.Helper()
	d, err := NewDriver(c.m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadInput(); err != nil {
		t.Fatal(err)
	}
	if err := d.RunChain(); err != nil {
		t.Fatal(err)
	}
	return d
}

// referenceDigests runs the same chain failure-free on a fresh cluster and
// returns its output digests.
func referenceDigests(t *testing.T, n, slots, blockRecords int, cfg ChainConfig) []workload.Digest {
	t.Helper()
	cfg.AfterJob = nil
	c := startCluster(t, n, slots, blockRecords)
	d := runChain(t, c, cfg)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	return digs
}

func assertDigestsEqual(t *testing.T, got, want []workload.Digest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("partition count %d, want %d", len(got), len(want))
	}
	for p := range got {
		if !got[p].Equal(want[p]) {
			t.Errorf("partition %d digest %v, want %v", p, got[p], want[p])
		}
	}
}

func totalRecords(digs []workload.Digest) int {
	n := 0
	for _, d := range digs {
		n += d.Count
	}
	return n
}

var baseCfg = ChainConfig{
	Jobs:                4,
	NumReducers:         8,
	RecordsPerPartition: 120,
	Seed:                7,
}

func TestChainNoFailure(t *testing.T) {
	c := startCluster(t, 4, 2, 40)
	d := runChain(t, c, baseCfg)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	// The chain UDFs are 1:1, so every input record flows to the output.
	if got, want := totalRecords(digs), 4*120; got != want {
		t.Fatalf("output records = %d, want %d", got, want)
	}
	if d.StartedRuns != baseCfg.Jobs {
		t.Fatalf("StartedRuns = %d, want %d", d.StartedRuns, baseCfg.Jobs)
	}
	if d.RecoveryEpisodes != 0 {
		t.Fatalf("RecoveryEpisodes = %d, want 0", d.RecoveryEpisodes)
	}
}

func TestChainDeterministicAcrossClusters(t *testing.T) {
	a := referenceDigests(t, 4, 2, 40, baseCfg)
	b := referenceDigests(t, 4, 2, 40, baseCfg)
	assertDigestsEqual(t, b, a)
}

func TestMapOutputsPersistAcrossJobs(t *testing.T) {
	c := startCluster(t, 3, 2, 40)
	runChain(t, c, ChainConfig{Jobs: 3, NumReducers: 6, RecordsPerPartition: 80, Seed: 1})
	persisted := 0
	for _, w := range c.workers {
		persisted += w.StoreStats().MapOutputs
	}
	// Every job's mappers persist: job 1 has 2 blocks per partition (80/40)
	// over 3 partitions = 6 mappers; jobs 2..3 have one mapper per written
	// output block. At minimum one map output per job must exist.
	if persisted < 3 {
		t.Fatalf("persisted map outputs = %d, want >= 3 (one per job)", persisted)
	}
}

func TestSingleFailureBetweenJobsNoSplit(t *testing.T) {
	want := referenceDigests(t, 5, 2, 40, baseCfg)

	c := startCluster(t, 5, 2, 40)
	cfg := baseCfg
	cfg.AfterJob = func(job int) {
		if job == 2 {
			c.killAndAwaitDetection(t, 1)
		}
	}
	d := runChain(t, c, cfg)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
	if d.RecoveryEpisodes != 1 {
		t.Fatalf("RecoveryEpisodes = %d, want 1", d.RecoveryEpisodes)
	}
	if d.RecomputedReducers == 0 {
		t.Fatal("no reducers recomputed despite data loss")
	}
	if d.StartedRuns <= baseCfg.Jobs {
		t.Fatalf("StartedRuns = %d, want > %d (recomputation runs count)", d.StartedRuns, baseCfg.Jobs)
	}
	t.Logf("runs=%d recomputedMappers=%d recomputedReducers=%d remoteReads=%d",
		d.StartedRuns, d.RecomputedMappers, d.RecomputedReducers, d.RemoteReads)
}

func TestSingleFailureWithSplit(t *testing.T) {
	want := referenceDigests(t, 5, 2, 40, baseCfg)

	c := startCluster(t, 5, 2, 40)
	cfg := baseCfg
	cfg.Split = true // ratio 0 = one split per surviving worker
	cfg.AfterJob = func(job int) {
		if job == 3 {
			c.killAndAwaitDetection(t, 2)
		}
	}
	d := runChain(t, c, cfg)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)

	// A split recomputation writes a regenerated partition from several
	// workers; the lineage must show multi-node reducer outputs somewhere.
	split := false
	for j := 1; j <= d.Chain().Len(); j++ {
		for _, r := range d.Chain().Job(j).Reducers {
			if len(r.Nodes) > 1 {
				split = true
			}
		}
	}
	if !split {
		t.Fatal("split recomputation left no multi-node reducer outputs in the lineage")
	}
}

func TestFailureLateInChainCascadesDeep(t *testing.T) {
	cfg := ChainConfig{Jobs: 5, NumReducers: 6, RecordsPerPartition: 80, Seed: 3, Split: true}
	want := referenceDigests(t, 4, 2, 40, cfg)

	c := startCluster(t, 4, 2, 40)
	cfg2 := cfg
	cfg2.AfterJob = func(job int) {
		if job == 4 { // lose data with most of the chain persisted
			c.killAndAwaitDetection(t, 0)
		}
	}
	d := runChain(t, c, cfg2)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
	// The cascade must have recomputed several jobs (lost reducer outputs
	// exist in every completed job the dead worker touched).
	if d.RecomputedReducers < 2 {
		t.Fatalf("RecomputedReducers = %d, want a multi-job cascade", d.RecomputedReducers)
	}
}

func TestDoubleFailureSequential(t *testing.T) {
	cfg := ChainConfig{Jobs: 5, NumReducers: 8, RecordsPerPartition: 80, Seed: 5, Split: true}
	want := referenceDigests(t, 6, 2, 40, cfg)

	c := startCluster(t, 6, 2, 40)
	cfg2 := cfg
	cfg2.AfterJob = func(job int) {
		switch job {
		case 2:
			c.killAndAwaitDetection(t, 1)
		case 4:
			c.killAndAwaitDetection(t, 3)
		}
	}
	d := runChain(t, c, cfg2)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
	if d.RecoveryEpisodes != 2 {
		t.Fatalf("RecoveryEpisodes = %d, want 2", d.RecoveryEpisodes)
	}
}

func TestFailureMidJobCancelsAndRecovers(t *testing.T) {
	cfg := ChainConfig{Jobs: 4, NumReducers: 8, RecordsPerPartition: 150, Seed: 9, Split: true}
	want := referenceDigests(t, 5, 1, 30, cfg)

	c := startCluster(t, 5, 1, 30)
	mapOutputs := func() int {
		n := 0
		for _, w := range c.workers {
			n += w.StoreStats().MapOutputs
		}
		return n
	}
	// The death must land while job 3 is running, so the master has a run to
	// cancel and the driver one to recover: the kill waits for job 3's first
	// persisted map output (tasks are in flight, most of the job is still to
	// come). A sleep after job 2 instead could, on a loaded box, land after
	// the last job committed — single-replica final output on the victim
	// with nothing left to recover it — or so late that the chain finished
	// before detection.
	killed := make(chan struct{})
	cfg2 := cfg
	cfg2.OnRunStart = func(_, job int, kind metrics.RunKind) {
		if job != 3 || kind != metrics.RunInitial {
			return
		}
		before := mapOutputs()
		go func() {
			defer close(killed)
			for mapOutputs() == before {
				time.Sleep(time.Millisecond)
			}
			c.workers[4].Kill()
		}()
	}
	cfg2.AfterJob = func(job int) {
		if job == 3 {
			// Only reached if job 3 outran the goroutine above: the kill
			// then lands here, and detection interrupts job 4 instead.
			<-killed
		}
	}
	d := runChain(t, c, cfg2)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
	if !c.m.FailedNodes()[4] {
		t.Fatal("worker 4 was never declared dead")
	}
	if d.RecoveryEpisodes == 0 {
		t.Fatal("no run was interrupted: the kill did not land mid-chain")
	}
}

// TestNestedFailureDuringRecovery is the FAIL 4,7-style nested case: a
// second worker dies while the first failure's recomputation runs. Worker
// 5 is killed as the first recompute run is submitted, so that run fails
// and the driver has to fold the second loss into a new plan.
func TestNestedFailureDuringRecovery(t *testing.T) {
	cfg := ChainConfig{Jobs: 5, NumReducers: 8, RecordsPerPartition: 120, Seed: 11, Split: true}
	want := referenceDigests(t, 6, 1, 40, cfg)

	c := startCluster(t, 6, 1, 40)
	cfg2 := cfg
	cfg2.AfterJob = func(job int) {
		if job == 4 {
			c.killAndAwaitDetection(t, 2)
		}
	}
	killed := false
	cfg2.OnRunStart = func(run, job int, kind metrics.RunKind) {
		if kind == metrics.RunRecompute && !killed {
			killed = true
			c.workers[5].Kill()
		}
	}
	d := runChain(t, c, cfg2)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
	if !killed {
		t.Fatal("no recompute run started: the first kill did not land after job 4")
	}
	replanned := false
	for _, r := range d.RunLog {
		replanned = replanned || (r.Kind == "recompute" && r.Err)
	}
	if !replanned {
		t.Fatalf("no recompute run ended in error (run log %+v): the second kill missed the recovery", d.RunLog)
	}
	failed := c.m.FailedNodes()
	if !failed[2] || !failed[5] {
		t.Fatalf("failed set %v, want workers 2 and 5 dead", failed)
	}
}

func TestHybridReplicationSurvivesWithoutDeepCascade(t *testing.T) {
	cfg := ChainConfig{
		Jobs: 6, NumReducers: 6, RecordsPerPartition: 80, Seed: 13,
		HybridEveryK: 2, HybridRepl: 2, Split: true,
	}
	want := referenceDigests(t, 5, 2, 40, cfg)

	c := startCluster(t, 5, 2, 40)
	cfg2 := cfg
	cfg2.AfterJob = func(job int) {
		if job == 5 {
			c.killAndAwaitDetection(t, 1)
		}
	}
	d := runChain(t, c, cfg2)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)

	// Replication at jobs 2 and 4 bounds the cascade: a failure after job 5
	// must not recompute jobs 1..3 (job 4's replicated output survives on
	// the second replica). The cascade may touch jobs 4..5 only.
	if d.Chain().Job(4) == nil {
		t.Fatal("lineage lost job 4")
	}
	maxSteps := 2 * cfg.NumReducers // jobs 4 and 5 at most
	if d.RecomputedReducers > maxSteps {
		t.Fatalf("RecomputedReducers = %d, want <= %d (checkpoint should bound cascade)",
			d.RecomputedReducers, maxSteps)
	}
}

func TestReclaimAtCheckpoints(t *testing.T) {
	cfg := ChainConfig{
		Jobs: 6, NumReducers: 6, RecordsPerPartition: 80, Seed: 17,
		HybridEveryK: 3, HybridRepl: 2, ReclaimAtCheckpoints: true,
	}
	want := referenceDigests(t, 4, 2, 40, ChainConfig{
		Jobs: 6, NumReducers: 6, RecordsPerPartition: 80, Seed: 17,
	})

	c := startCluster(t, 4, 2, 40)
	d := runChain(t, c, cfg)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid replication and reclamation must not change the data.
	assertDigestsEqual(t, digs, want)

	// Intermediate files before the last checkpoint must be gone from the
	// workers ("out1", "out2" precede checkpoint 3).
	for _, w := range c.workers {
		for _, f := range w.StoreStats().Files {
			if f == "out1" || f == "out2" {
				t.Fatalf("worker %d still stores reclaimed file %q", w.ID(), f)
			}
		}
	}
}

func TestReplicatedChainSurvivesWithoutRecomputation(t *testing.T) {
	// With OutputRepl=2 (the REPL-2 baseline), losing one worker between
	// jobs destroys no partition, so the driver plans an empty cascade.
	cfg := ChainConfig{Jobs: 4, NumReducers: 6, RecordsPerPartition: 80, Seed: 19, OutputRepl: 2}
	want := referenceDigests(t, 5, 2, 40, cfg)

	c := startCluster(t, 5, 2, 40)
	cfg2 := cfg
	cfg2.AfterJob = func(job int) {
		if job == 2 {
			c.killAndAwaitDetection(t, 3)
		}
	}
	d := runChain(t, c, cfg2)
	digs, err := d.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	assertDigestsEqual(t, digs, want)
	if d.RecomputedReducers != 0 {
		t.Fatalf("RecomputedReducers = %d, want 0: replication should cover the loss", d.RecomputedReducers)
	}
}

func TestRegisterDuplicateAndDeadIDRejected(t *testing.T) {
	c := startCluster(t, 2, 1, 40)

	// Same live ID again.
	if _, err := StartWorker(WorkerConfig{ID: 0, MasterAddr: c.m.Addr(), Timing: TestTiming()}); err == nil {
		t.Fatal("duplicate registration succeeded")
	}

	// A dead ID must not be resurrected.
	c.killAndAwaitDetection(t, 1)
	if _, err := StartWorker(WorkerConfig{ID: 1, MasterAddr: c.m.Addr(), Timing: TestTiming()}); err == nil {
		t.Fatal("dead ID re-registration succeeded")
	}

	// A fresh ID joins fine.
	w, err := StartWorker(WorkerConfig{ID: 2, MasterAddr: c.m.Addr(), Timing: TestTiming()})
	if err != nil {
		t.Fatal(err)
	}
	c.workers = append(c.workers, w)
}

func TestDetectionTimeoutDeclaresDeath(t *testing.T) {
	c := startCluster(t, 3, 1, 40)
	start := time.Now()
	c.killAndAwaitDetection(t, 0)
	elapsed := time.Since(start)
	tt := TestTiming()
	if elapsed < tt.DetectionTimeout/2 {
		t.Fatalf("death declared after %v, faster than plausible for timeout %v", elapsed, tt.DetectionTimeout)
	}
	if len(c.m.AliveWorkers()) != 2 {
		t.Fatalf("alive = %v, want 2 workers", c.m.AliveWorkers())
	}
}

func TestRunJobErrorsWithoutWorkers(t *testing.T) {
	m, err := StartMaster(MasterConfig{Timing: TestTiming()}, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RunJob(JobSpec{ID: 1, InFile: "x", OutFile: "y", NumReducers: 1}); err == nil {
		t.Fatal("RunJob without workers succeeded")
	}
	if _, err := NewDriver(m, baseCfg); err == nil {
		t.Fatal("NewDriver without workers succeeded")
	}
}

// TestRunJobOwnErrorReturnsAtOnce holds that an error no worker death can
// cause is returned without waiting for a detection: a full run over a
// missing input fails in less than one detection timeout.
func TestRunJobOwnErrorReturnsAtOnce(t *testing.T) {
	c := startCluster(t, 2, 1, 10)
	start := time.Now()
	_, err := c.m.RunJob(JobSpec{ID: 1, InFile: "nope", OutFile: "out1", NumReducers: 2})
	elapsed := time.Since(start)
	var loss *DataLossError
	if err == nil || errors.As(err, &loss) {
		t.Fatalf("RunJob over a missing input: err = %v, want the missing-input error", err)
	}
	if limit := TestTiming().DetectionTimeout; elapsed >= limit {
		t.Fatalf("RunJob returned %q after %v, want under one detection timeout (%v)", err, elapsed, limit)
	}
}

func TestDriverValidation(t *testing.T) {
	c := startCluster(t, 1, 1, 10)
	bad := []ChainConfig{
		{Jobs: 0, NumReducers: 1},
		{Jobs: 1, NumReducers: 0},
		{Jobs: 1, NumReducers: 1, ReclaimAtCheckpoints: true},
		{Jobs: 1, NumReducers: 1, OutputRepl: 2, HybridEveryK: 2},
	}
	for i, cfg := range bad {
		if _, err := NewDriver(c.m, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestUnrecoverableWhenInputLost(t *testing.T) {
	// Input replication 1 on a 3-worker cluster: killing an input holder
	// makes the chain unrecoverable and the driver must say so.
	c := startCluster(t, 3, 2, 40)
	d, err := NewDriver(c.m, ChainConfig{
		Jobs: 3, NumReducers: 4, RecordsPerPartition: 80, InputRepl: 1, Seed: 23,
		AfterJob: nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadInput(); err != nil {
		t.Fatal(err)
	}
	c.killAndAwaitDetection(t, 0)
	err = d.RunChain()
	if err == nil {
		t.Fatal("chain succeeded with its only input replica lost")
	}
	var loss *DataLossError
	if errors.As(err, &loss) {
		t.Fatalf("driver surfaced raw DataLossError %v; want an unrecoverable-plan error", err)
	}
}
