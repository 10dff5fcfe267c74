package engine

import (
	"testing"
	"testing/quick"

	"rcmp/internal/workload"
)

func base() Config {
	return Config{
		Nodes:          6,
		NumReducers:    6,
		Jobs:           4,
		RecordsPerNode: 300,
		Seed:           42,
	}
}

// golden runs the failure-free chain and returns its output digests.
func golden(t *testing.T, cfg Config) []workload.Digest {
	t.Helper()
	cfg.Failures = nil
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d, err := e.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustEqual(t *testing.T, got, want []workload.Digest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("partition count %d vs %d", len(got), len(want))
	}
	for p := range got {
		if got[p] != want[p] {
			t.Fatalf("partition %d digest mismatch:\n got %+v\nwant %+v", p, got[p], want[p])
		}
	}
}

func runWith(t *testing.T, cfg Config) (*Engine, []workload.Digest) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d, err := e.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func TestFailureFreeDeterministic(t *testing.T) {
	a := golden(t, base())
	b := golden(t, base())
	mustEqual(t, a, b)
	total := 0
	for _, d := range a {
		total += d.Count
	}
	if total != 6*300 {
		t.Fatalf("chain emitted %d records, want %d (1:1 end to end)", total, 6*300)
	}
}

func TestSingleFailureRecoversExactly(t *testing.T) {
	want := golden(t, base())
	cfg := base()
	cfg.Failures = []Failure{{Before: 4, Node: 2}}
	e, got := runWith(t, cfg)
	mustEqual(t, got, want)
	if e.RecoveryEpisodes != 1 {
		t.Fatalf("episodes %d", e.RecoveryEpisodes)
	}
	// Minimal recomputation: roughly 1/N of mappers and reducers per
	// affected job, not full jobs.
	fullMappers := 6 * (300 / 50) // nodes * blocks per partition
	if e.RecomputedMappers == 0 || e.RecomputedMappers >= fullMappers*3 {
		t.Fatalf("recomputed %d mappers across 3 jobs (full would be %d/job)", e.RecomputedMappers, fullMappers)
	}
	if e.RecomputedReducers != 3 { // one lost reducer per completed job
		t.Fatalf("recomputed %d reducers, want 3", e.RecomputedReducers)
	}
}

func TestSingleFailureWithSplittingRecoversExactly(t *testing.T) {
	want := golden(t, base())
	cfg := base()
	cfg.Split = true
	cfg.SplitRatio = 5
	cfg.Failures = []Failure{{Before: 4, Node: 1}}
	_, got := runWith(t, cfg)
	mustEqual(t, got, want)
}

func TestSplitAutoRatioRecoversExactly(t *testing.T) {
	want := golden(t, base())
	cfg := base()
	cfg.Split = true // SplitRatio 0 -> alive count
	cfg.Failures = []Failure{{Before: 3, Node: 0}}
	_, got := runWith(t, cfg)
	mustEqual(t, got, want)
}

func TestDoubleFailureDistinctJobs(t *testing.T) {
	want := golden(t, base())
	cfg := base()
	cfg.Split = true
	cfg.SplitRatio = 3
	cfg.Failures = []Failure{{Before: 2, Node: 5}, {Before: 4, Node: 3}}
	e, got := runWith(t, cfg)
	mustEqual(t, got, want)
	if e.RecoveryEpisodes != 2 {
		t.Fatalf("episodes %d, want 2", e.RecoveryEpisodes)
	}
}

func TestDoubleFailureSameBoundary(t *testing.T) {
	want := golden(t, base())
	cfg := base()
	cfg.Failures = []Failure{{Before: 3, Node: 1}, {Before: 3, Node: 4}}
	_, got := runWith(t, cfg)
	mustEqual(t, got, want)
}

func TestHybridReplicationRecoversExactly(t *testing.T) {
	cfg := base()
	cfg.Jobs = 5
	want := golden(t, cfg)
	cfg.HybridEveryK = 2
	cfg.HybridRepl = 2
	// Hybrid changes placement, not content.
	mustEqual(t, golden(t, cfg), want)
	cfg.Failures = []Failure{{Before: 5, Node: 2}}
	e, got := runWith(t, cfg)
	mustEqual(t, got, want)
	// Job 5's input is job 4's output, which is replicated (checkpoint):
	// nothing needs recomputation at all — the cascade is fully bounded.
	if e.RecomputedReducers != 0 || e.RecomputedMappers != 0 {
		t.Fatalf("recomputed %d mappers / %d reducers; checkpoint at job 4 should bound the cascade to zero",
			e.RecomputedMappers, e.RecomputedReducers)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 2, Jobs: 1, NumReducers: 1},
		{Nodes: 2, Jobs: 1, NumReducers: 1, RecordsPerNode: 10, Failures: []Failure{{Before: 9, Node: 0}}},
		{Nodes: 2, Jobs: 1, NumReducers: 1, RecordsPerNode: 10, Failures: []Failure{{Before: 1, Node: 7}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestOutputDigestsBeforeRun(t *testing.T) {
	e, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OutputDigests(); err == nil {
		t.Fatal("digests of unrun chain did not error")
	}
}

// The central correctness property of the reproduction: for arbitrary
// single/double failure schedules and split settings, the recovered chain
// output is record-for-record identical to the failure-free run.
func TestRecoveryExactnessProperty(t *testing.T) {
	cfg := base()
	cfg.Nodes = 5
	cfg.NumReducers = 5
	cfg.Jobs = 3
	cfg.RecordsPerNode = 150
	want := golden(t, cfg)

	check := func(nodeA, nodeB, jobA, jobB uint8, split bool, ratio uint8) bool {
		c := cfg
		c.Split = split
		c.SplitRatio = int(ratio) % 6
		fa := Failure{Before: int(jobA)%c.Jobs + 1, Node: int(nodeA) % c.Nodes}
		fb := Failure{Before: int(jobB)%c.Jobs + 1, Node: int(nodeB) % c.Nodes}
		c.Failures = []Failure{fa}
		if fb.Node != fa.Node {
			c.Failures = append(c.Failures, fb)
		}
		e, err := New(c)
		if err != nil {
			return false
		}
		if err := e.Run(); err != nil {
			t.Logf("run error for %+v: %v", c.Failures, err)
			return false
		}
		got, err := e.OutputDigests()
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for p := range got {
			if got[p] != want[p] {
				t.Logf("digest mismatch p%d for %+v (split=%v ratio=%d)", p, c.Failures, split, c.SplitRatio)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
