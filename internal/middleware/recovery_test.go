package middleware_test

import (
	"testing"
	"testing/quick"

	"rcmp/internal/core"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/middleware"
)

// planAfterLoss plans recovery for a job graph whose jobs before frontier
// (in the graph's topological order) have completed. Every file is one
// one-block partition; the files in lost, and every map output, live only
// on node 1, the rest on node 0. Node 1 then fails while frontier runs, and
// the recovery planner builds the plan. Map outputs are all lost, so a
// recomputed job re-reads every input and the cascade follows files as the
// middleware's job-level inference (Section IV-A) does.
func planAfterLoss(t testing.TB, jobs []middleware.Job, lost map[string]bool, frontier middleware.JobID) (*core.Plan, *core.Topology, error) {
	t.Helper()
	g, err := middleware.NewGraph(jobs)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	const blockSize = 100
	fs := dfs.New(blockSize)
	place := func(file string) {
		node := 0
		if lost[file] {
			node = 1
		}
		if _, err := fs.Create(file, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.SetPartition(file, 0, blockSize, [][]int{{node}}); err != nil {
			t.Fatal(err)
		}
	}
	failedJob := 0
	ch := lineage.NewChain()
	for j := 1; j <= topo.NumJobs(); j++ {
		if middleware.JobID(topo.Name(j)) == frontier {
			failedJob = j
		}
		ins := topo.Inputs(j)
		rec := &lineage.JobRecord{
			ID:         j,
			Name:       topo.Name(j),
			InputFile:  ins[0],
			OutputFile: topo.Output(j),
			Completed:  failedJob == 0,
			Reducers:   []lineage.ReducerMeta{{Index: 0, OutputBytes: blockSize, Nodes: []int{1}}},
		}
		if len(ins) > 1 {
			rec.InputFiles = ins
		}
		for i, in := range ins {
			if topo.ProducerOf(in) == 0 && fs.File(in) == nil {
				place(in)
			}
			rec.Mappers = append(rec.Mappers, lineage.MapperMeta{
				Index: i, InFile: i, InputBytes: blockSize, OutputBytes: blockSize, Node: 1,
			})
		}
		if rec.Completed {
			place(rec.OutputFile)
		}
		if err := ch.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if failedJob == 0 {
		t.Fatalf("frontier %q is not a job of the graph", frontier)
	}
	fs.FailNode(1)
	plan, err := core.BuildGraphPlan(ch, topo, fs, failedJob, map[int]bool{1: true}, core.Options{AliveNodes: 1})
	return plan, topo, err
}

func stepNames(plan *core.Plan, topo *core.Topology) []string {
	var names []string
	for _, s := range plan.Steps {
		names = append(names, topo.Name(s.Job))
	}
	return names
}

func TestPlanRecoveryChain(t *testing.T) {
	// Failure during job7: out1..out6 all damaged.
	lost := map[string]bool{}
	for _, f := range []string{"out1", "out2", "out3", "out4", "out5", "out6"} {
		lost[f] = true
	}
	plan, topo, err := planAfterLoss(t, middleware.Chain(7), lost, "job7")
	if err != nil {
		t.Fatal(err)
	}
	got := stepNames(plan, topo)
	want := []string{"job1", "job2", "job3", "job4", "job5", "job6"}
	if len(got) != len(want) {
		t.Fatalf("steps %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %s, want %s", i, got[i], want[i])
		}
	}
	if topo.Name(plan.RestartJob) != "job7" {
		t.Fatalf("restart %s, want job7", topo.Name(plan.RestartJob))
	}
}

func TestPlanRecoveryDiamond(t *testing.T) {
	// Failure during d; fb lost, fc survived, fa lost. d needs fb -> b
	// recomputes; b needs fa -> a recomputes. c is not re-run: fc survived,
	// and of fa's consumers only b runs. So steps = [a b].
	plan, topo, err := planAfterLoss(t, middleware.Diamond(), map[string]bool{"fb": true, "fa": true}, "d")
	if err != nil {
		t.Fatal(err)
	}
	if got := stepNames(plan, topo); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("steps %v, want [a b]", got)
	}
}

func TestPlanRecoveryExternalLossUnrecoverable(t *testing.T) {
	if _, _, err := planAfterLoss(t, middleware.Chain(3), map[string]bool{"input": true}, "job1"); err == nil {
		t.Fatal("lost external input did not error")
	}
	// A frontier outside the graph is refused, not planned around.
	g, err := middleware.NewGraph(middleware.Chain(3))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.BuildGraphPlan(lineage.NewChain(), topo, dfs.New(100), 5, nil, core.Options{}); err == nil {
		t.Fatal("unknown frontier job did not error")
	}
}

// Property: every recovery plan is closed (each step's damaged inputs are
// regenerated by an earlier step, as are the frontier's) and minimal (each
// step's output has a consumer that runs).
func TestPlanRecoveryClosureProperty(t *testing.T) {
	check := func(n uint8, damageMask uint16, frontier uint8) bool {
		jobs := int(n)%8 + 2
		chain := middleware.Chain(jobs)
		forced := chain[int(frontier)%jobs].ID
		damaged := map[string]bool{}
		for i := 1; i < jobs; i++ {
			if damageMask&(1<<uint(i)) != 0 {
				_, _, out := middleware.ChainNames(i)
				damaged[out] = true
			}
		}
		plan, topo, err := planAfterLoss(t, chain, damaged, forced)
		if err != nil {
			t.Log(err)
			return false
		}
		willRun := map[int]bool{}
		for j := plan.RestartJob; j <= topo.NumJobs(); j++ {
			willRun[j] = true
		}
		for _, st := range plan.Steps {
			willRun[st.Job] = true
		}
		regenerated := map[string]bool{}
		closed := func(j int) bool {
			for _, in := range topo.Inputs(j) {
				if damaged[in] && topo.ProducerOf(in) < plan.RestartJob && !regenerated[in] {
					return false
				}
			}
			return true
		}
		for _, st := range plan.Steps {
			// Closure: steps are in execution order.
			if !closed(st.Job) {
				return false
			}
			// Minimality: the regenerated output has a running consumer.
			out := topo.Output(st.Job)
			hasConsumer := false
			for _, c := range topo.ConsumersOf(out, nil) {
				hasConsumer = hasConsumer || willRun[c]
			}
			if !hasConsumer {
				return false
			}
			regenerated[out] = true
		}
		return closed(plan.RestartJob)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
