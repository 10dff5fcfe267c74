package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := (PerJob{Full: 100, Degraded: 110}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (PerJob{Full: 0, Degraded: 1}).Validate(); err == nil {
		t.Fatal("zero Full accepted")
	}
	if err := (PerJob{Full: 1, Degraded: -1}).Validate(); err == nil {
		t.Fatal("negative Degraded accepted")
	}
}

func TestOptimisticTotal(t *testing.T) {
	p := PerJob{Full: 100, Degraded: 110}
	// Failure at job 7 of 7: 6 full jobs + 45s reaction + 7 degraded jobs.
	got := OptimisticTotal(7, 7, p, 45)
	want := 6*100.0 + 45 + 7*110
	if got != want {
		t.Fatalf("OptimisticTotal = %v, want %v", got, want)
	}
	// Late failure is much worse than early failure (the paper's 2.23x).
	early := OptimisticTotal(7, 2, p, 45)
	if got <= early {
		t.Fatal("late failure not worse than early for OPTIMISTIC")
	}
	// Late-failure OPTIMISTIC nearly doubles the no-failure time.
	ratio := got / (7 * p.Full)
	if ratio < 1.8 || ratio > 2.4 {
		t.Fatalf("late OPTIMISTIC ratio %.2f, expected near 2x", ratio)
	}
}

func TestRCMPTotalWithFailure(t *testing.T) {
	p := PerJob{Full: 100, Degraded: 110}
	rec := RCMPRecovery{Reaction: 45, RecomputeTotal: 80, RestartDegraded: 110}
	got := RCMPTotalWithFailure(7, 2, p, rec)
	want := 1*100.0 + 45 + 80 + 110 + 5*110
	if got != want {
		t.Fatalf("RCMPTotalWithFailure = %v, want %v", got, want)
	}
}

func TestHadoopTotalWithFailure(t *testing.T) {
	p := PerJob{Full: 130, Degraded: 140}
	got := HadoopTotalWithFailure(7, 2, p, 190)
	want := 130.0 + 190 + 5*140
	if got != want {
		t.Fatalf("HadoopTotalWithFailure = %v, want %v", got, want)
	}
}

// Property: for any measurements, RCMP with partial recomputation beats
// OPTIMISTIC whenever the recovery episode costs less than re-running the
// completed prefix plus the failed job.
func TestRCMPBeatsOptimisticWhenRecoveryCheap(t *testing.T) {
	check := func(fullRaw, degRaw, recRaw uint16, failAtRaw, jobsRaw uint8) bool {
		p := PerJob{Full: float64(fullRaw%500) + 50, Degraded: float64(degRaw%500) + 60}
		jobs := int(jobsRaw)%20 + 2
		failAt := int(failAtRaw)%jobs + 1
		rec := RCMPRecovery{
			Reaction:        45,
			RecomputeTotal:  float64(recRaw % 200),
			RestartDegraded: p.Degraded,
		}
		rcmp := RCMPTotalWithFailure(jobs, failAt, p, rec)
		opt := OptimisticTotal(jobs, failAt, p, 45)
		// OPTIMISTIC re-runs jobs 1..failAt on the degraded cluster where
		// RCMP pays only the recovery + restart; if the recompute cost is
		// below that re-run cost, RCMP must win.
		rerunCost := float64(failAt) * p.Degraded
		if rec.RecomputeTotal+rec.RestartDegraded < rerunCost {
			return rcmp < opt
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdownSeries(t *testing.T) {
	lengths := []int{10, 20, 30}
	s := SlowdownSeries(lengths,
		func(jobs int) float64 { return float64(jobs) * 150 },
		func(jobs int) float64 { return float64(jobs) * 100 })
	for _, v := range s {
		if math.Abs(v-1.5) > 1e-12 {
			t.Fatalf("series %v, want all 1.5", s)
		}
	}
}

// The paper's Figure 10 observation: with a failure at job 2, the slowdown
// of Hadoop vs RCMP is nearly flat in chain length, converging to the ratio
// of degraded per-job times.
func TestChainLengthStability(t *testing.T) {
	rcmpP := PerJob{Full: 100, Degraded: 108}
	hadP := PerJob{Full: 135, Degraded: 145}
	rec := RCMPRecovery{Reaction: 45, RecomputeTotal: 60, RestartDegraded: 108}
	lengths := []int{10, 50, 100}
	s := SlowdownSeries(lengths,
		func(jobs int) float64 { return HadoopTotalWithFailure(jobs, 2, hadP, 180) },
		func(jobs int) float64 { return RCMPTotalWithFailure(jobs, 2, rcmpP, rec) })
	if math.Abs(s[2]-s[0]) > 0.1 {
		t.Fatalf("slowdown drifts with chain length: %v", s)
	}
	limit := hadP.Degraded / rcmpP.Degraded
	if math.Abs(s[2]-limit) > 0.05 {
		t.Fatalf("slowdown %v does not converge to degraded ratio %.3f", s[2], limit)
	}
}
