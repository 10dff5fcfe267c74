package middleware

import (
	"testing"
	"testing/quick"
)

func diamond() []Job {
	// input -> a -> {fa}
	// fa -> b -> {fb};  fa -> c -> {fc}
	// {fb, fc} -> d -> {fd}
	return []Job{
		{ID: "d", Inputs: []string{"fb", "fc"}, Outputs: []string{"fd"}},
		{ID: "b", Inputs: []string{"fa"}, Outputs: []string{"fb"}},
		{ID: "a", Inputs: []string{"input"}, Outputs: []string{"fa"}},
		{ID: "c", Inputs: []string{"fa"}, Outputs: []string{"fc"}},
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(diamond()); err != nil {
		t.Fatal(err)
	}
	bad := [][]Job{
		{{ID: "", Outputs: []string{"x"}}},
		{{ID: "a", Outputs: []string{"x"}}, {ID: "a", Outputs: []string{"y"}}},
		{{ID: "a", Outputs: []string{"x"}}, {ID: "b", Outputs: []string{"x"}}},
		{{ID: "a", Outputs: nil}},
		{ // cycle: a -> b -> a
			{ID: "a", Inputs: []string{"fb"}, Outputs: []string{"fa"}},
			{ID: "b", Inputs: []string{"fa"}, Outputs: []string{"fb"}},
		},
	}
	for i, jobs := range bad {
		if _, err := NewGraph(jobs); err == nil {
			t.Errorf("case %d: invalid graph accepted", i)
		}
	}
}

func TestTopologicalOrder(t *testing.T) {
	g, err := NewGraph(diamond())
	if err != nil {
		t.Fatal(err)
	}
	pos := map[JobID]int{}
	for i, id := range g.Order() {
		pos[id] = i
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Fatalf("order violates dependencies: %v", g.Order())
	}
	// Deterministic: repeated construction yields the same order.
	g2, _ := NewGraph(diamond())
	for i, id := range g.Order() {
		if g2.Order()[i] != id {
			t.Fatal("order not deterministic")
		}
	}
}

func TestProducerConsumers(t *testing.T) {
	g, _ := NewGraph(diamond())
	if g.producer["fa"] != "a" || g.producer["input"] != "" {
		t.Fatal("producer lookup wrong")
	}
	cons := g.Consumers("fa")
	if len(cons) != 2 || cons[0] != "b" || cons[1] != "c" {
		t.Fatalf("consumers of fa = %v", cons)
	}
	if _, ok := g.Job("a"); !ok {
		t.Fatal("job lookup failed")
	}
	if _, ok := g.Job("zzz"); ok {
		t.Fatal("phantom job found")
	}
}

func TestSchedulerFlow(t *testing.T) {
	g, _ := NewGraph(diamond())
	s := NewScheduler(g)
	if got := s.Runnable(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("initial runnable %v, want [a]", got)
	}
	if err := s.Complete("b"); err == nil {
		t.Fatal("completing unready job succeeded")
	}
	if err := s.Complete("nope"); err == nil {
		t.Fatal("completing unknown job succeeded")
	}
	if err := s.Complete("a"); err != nil {
		t.Fatal(err)
	}
	got := s.Runnable()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("after a: runnable %v, want [b c]", got)
	}
	s.Complete("b")
	if got := s.Runnable(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("after b: runnable %v", got)
	}
	s.Complete("c")
	s.Complete("d")
	if !s.Done() {
		t.Fatal("scheduler not done after all jobs")
	}
	if !s.Completed("a") || s.Completed("zzz") {
		t.Fatal("Completed() wrong")
	}
}

func TestPlanRecoveryChain(t *testing.T) {
	g, _ := NewGraph(Chain(7))
	// Failure during job7: out1..out6 all partially damaged.
	damaged := map[string]bool{}
	for _, f := range []string{"out1", "out2", "out3", "out4", "out5", "out6"} {
		damaged[f] = true
	}
	plan, err := g.PlanRecovery(damaged, []JobID{"job7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 6 {
		t.Fatalf("%d steps, want 6", len(plan.Steps))
	}
	for i, st := range plan.Steps {
		want := JobID([]string{"job1", "job2", "job3", "job4", "job5", "job6"}[i])
		if st.Job != want {
			t.Fatalf("step %d = %s, want %s", i, st.Job, want)
		}
	}
}

func TestPlanRecoveryStopsAtUndamaged(t *testing.T) {
	g, _ := NewGraph(Chain(7))
	// Only out5 and out6 damaged (out1..4 replicated, say).
	plan, err := g.PlanRecovery(map[string]bool{"out5": true, "out6": true}, []JobID{"job7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 || plan.Steps[0].Job != "job5" || plan.Steps[1].Job != "job6" {
		t.Fatalf("steps %v, want [job5 job6]", plan.Steps)
	}
}

func TestPlanRecoveryUnneededDamageIgnored(t *testing.T) {
	g, _ := NewGraph(Chain(7))
	// out2 damaged but the failure hit job7 and out3..out6 survived: no
	// running job needs out2, so nothing recomputes.
	plan, err := g.PlanRecovery(map[string]bool{"out2": true}, []JobID{"job7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Fatalf("steps %v, want none (out2 has no running consumer)", plan.Steps)
	}
}

func TestPlanRecoveryDiamond(t *testing.T) {
	g, _ := NewGraph(diamond())
	// Failure during d; fb lost, fc survived, fa lost.
	plan, err := g.PlanRecovery(map[string]bool{"fb": true, "fa": true}, []JobID{"d"})
	if err != nil {
		t.Fatal(err)
	}
	// d needs fb -> b recomputes; b needs fa -> a recomputes. c is NOT
	// re-run: fc survived and nothing running consumes fa... except b,
	// which does. So steps = [a b].
	if len(plan.Steps) != 2 || plan.Steps[0].Job != "a" || plan.Steps[1].Job != "b" {
		t.Fatalf("steps %+v, want [a b]", plan.Steps)
	}
}

func TestPlanRecoveryExternalLossUnrecoverable(t *testing.T) {
	g, _ := NewGraph(Chain(3))
	if _, err := g.PlanRecovery(map[string]bool{"input": true}, []JobID{"job1"}); err == nil {
		t.Fatal("lost external input did not error")
	}
	if _, err := g.PlanRecovery(nil, []JobID{"ghost"}); err == nil {
		t.Fatal("unknown forced job did not error")
	}
}

// Property: every recovery plan is closed (each step's damaged inputs are
// regenerated by an earlier step) and minimal (each step's lost outputs
// have a consumer that runs).
func TestPlanRecoveryClosureProperty(t *testing.T) {
	check := func(n uint8, damageMask uint16, frontier uint8) bool {
		jobs := int(n)%8 + 2
		g, err := NewGraph(Chain(jobs))
		if err != nil {
			return false
		}
		forced := JobID(Chain(jobs)[int(frontier)%jobs].ID)
		damaged := map[string]bool{}
		for i := 1; i < jobs; i++ {
			if damageMask&(1<<uint(i)) != 0 {
				damaged["out"+string(rune('0'+i))] = true
			}
		}
		plan, err := g.PlanRecovery(damaged, []JobID{forced})
		if err != nil {
			return false
		}
		willRun := map[JobID]bool{forced: true}
		for _, st := range plan.Steps {
			willRun[st.Job] = true
		}
		regenerated := map[string]bool{}
		for _, st := range plan.Steps {
			j, _ := g.Job(st.Job)
			// Closure: all damaged inputs must have been regenerated by an
			// earlier step (steps are in execution order).
			for _, in := range j.Inputs {
				if damaged[in] && !regenerated[in] {
					return false
				}
			}
			// Minimality: each listed lost output has a running consumer.
			for _, out := range st.LostOutputs {
				hasConsumer := false
				for _, c := range g.Consumers(out) {
					if willRun[c] {
						hasConsumer = true
					}
				}
				if !hasConsumer {
					return false
				}
			}
			for _, out := range st.LostOutputs {
				regenerated[out] = true
			}
		}
		// And the forced job's damaged inputs are all regenerated.
		fj, _ := g.Job(forced)
		for _, in := range fj.Inputs {
			if damaged[in] && !regenerated[in] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestChainConstructor(t *testing.T) {
	jobs := Chain(3)
	if len(jobs) != 3 {
		t.Fatalf("%d jobs", len(jobs))
	}
	if jobs[0].Inputs[0] != "input" || jobs[2].Inputs[0] != "out2" {
		t.Fatalf("chain wiring wrong: %+v", jobs)
	}
}
