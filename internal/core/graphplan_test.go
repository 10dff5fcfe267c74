package core

import (
	"reflect"
	"strings"
	"testing"

	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/middleware"
)

func linearTopology(t testing.TB, jobs int) *Topology {
	t.Helper()
	g, err := middleware.NewGraph(middleware.Chain(jobs))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// buildGraphLineage is the DAG counterpart of buildChain: the same balanced
// layout (one reducer per node per job, bpp blocks per partition, partition
// p homed on node p%N) over an arbitrary topology. repl maps a job's topo
// position to its output replication (default 1); jobs 1..completed have
// completed and persisted their outputs.
func buildGraphLineage(t testing.TB, topo *Topology, nodes, bpp, completed int, repl map[int]int) (*lineage.Chain, *dfs.FS) {
	t.Helper()
	const blockSize = 100
	fs := dfs.New(blockSize)
	all := make([]int, nodes)
	for i := range all {
		all[i] = i
	}
	inRepl := 3
	if inRepl > nodes {
		inRepl = nodes
	}
	external := map[string]bool{}
	for j := 1; j <= topo.NumJobs(); j++ {
		for _, in := range topo.Inputs(j) {
			if topo.ProducerOf(in) == 0 && !external[in] {
				external[in] = true
				if _, err := fs.Create(in, nodes); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < nodes; p++ {
					sets := [][]int{fs.PlanReplicas(p, inRepl, all)}
					if _, err := fs.SetPartition(in, p, int64(bpp*blockSize), sets); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	ch := lineage.NewChain()
	for j := 1; j <= topo.NumJobs(); j++ {
		ins := topo.Inputs(j)
		rec := &lineage.JobRecord{
			ID:         j,
			Name:       topo.Name(j),
			InputFile:  ins[0],
			OutputFile: topo.Output(j),
			Splittable: true,
			Completed:  j <= completed,
		}
		if len(ins) > 1 {
			rec.InputFiles = ins
		}
		idx := 0
		for i := range ins {
			for p := 0; p < nodes; p++ {
				for b := 0; b < bpp; b++ {
					rec.Mappers = append(rec.Mappers, lineage.MapperMeta{
						Index:          idx,
						InFile:         i,
						InputPartition: p,
						InputBlock:     b,
						InputBytes:     blockSize,
						OutputBytes:    blockSize,
						Node:           p % nodes,
					})
					idx++
				}
			}
		}
		for p := 0; p < nodes; p++ {
			rec.Reducers = append(rec.Reducers, lineage.ReducerMeta{
				Index:       p,
				OutputBytes: int64(bpp * blockSize),
				Nodes:       []int{p % nodes},
			})
		}
		if err := ch.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
		if j <= completed {
			r := repl[j]
			if r == 0 {
				r = 1
			}
			if _, err := fs.Create(rec.OutputFile, nodes); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < nodes; p++ {
				sets := [][]int{fs.PlanReplicas(p%nodes, r, all)}
				if _, err := fs.SetPartition(rec.OutputFile, p, int64(bpp*blockSize), sets); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return ch, fs
}

// diamondTopology is prep -> {enrich, filter} -> join, with join fanning in
// both branches. Topological order (lexicographic tie-break): prep(1),
// enrich(2), filter(3), join(4).
func diamondTopology(t testing.TB) *Topology {
	t.Helper()
	g, err := middleware.NewGraph([]middleware.Job{
		{ID: "join", Inputs: []string{"flt", "enr"}, Outputs: []string{"joined"}},
		{ID: "prep", Inputs: []string{"input"}, Outputs: []string{"base"}},
		{ID: "filter", Inputs: []string{"base"}, Outputs: []string{"flt"}},
		{ID: "enrich", Inputs: []string{"base"}, Outputs: []string{"enr"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"prep", "enrich", "filter", "join"}
	for i, n := range want {
		if topo.Name(i+1) != n {
			t.Fatalf("topo order %v at %d, want %v", topo.Name(i+1), i+1, want)
		}
	}
	return topo
}

// A fan-in failure whose damage is confined to one branch must not re-run
// the surviving branch: losing filter's output while join runs re-runs
// filter (and prep, whose output the filter mappers re-read) but not
// enrich, whose replicated output survived.
func TestDiamondSurvivingBranchSkip(t *testing.T) {
	const nodes, bpp = 4, 2
	topo := diamondTopology(t)
	ch, fs := buildGraphLineage(t, topo, nodes, bpp, 3, map[int]int{2: 2}) // enrich replicated
	fs.FailNode(1)
	failed := map[int]bool{1: true}

	plan, err := BuildGraphPlan(ch, topo, fs, 4, failed, Options{AliveNodes: nodes - 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.RestartJob != 4 {
		t.Fatalf("restart %d, want 4 (join)", plan.RestartJob)
	}
	if len(plan.Steps) != 2 || plan.Steps[0].Job != 1 || plan.Steps[1].Job != 3 {
		t.Fatalf("steps %+v, want prep(1) and filter(3) only", plan.Steps)
	}
	for _, s := range plan.Steps {
		if len(s.Reducers) != 1 || s.Reducers[0].Reducer != 1 {
			t.Fatalf("job %d regenerates %+v, want partition 1 only", s.Job, s.Reducers)
		}
	}
}

// The Figure 5 rule crossing into a surviving branch: when prep's partition
// is regenerated by splits, enrich's persisted map outputs computed from it
// are stale even though enrich itself does not re-run. The plan must name
// them in Invalidated; the step consumer (filter) gets the usual
// SplitInvalidated treatment.
func TestDiamondSplitInvalidatesSurvivor(t *testing.T) {
	const nodes, bpp = 4, 2
	topo := diamondTopology(t)
	ch, fs := buildGraphLineage(t, topo, nodes, bpp, 3, map[int]int{2: 2})
	// Relocate one filter mapper reading partition 1 so its output survives:
	// it must still re-run, flagged split-invalidated (the chain-shaped rule).
	moved := ch.Job(3).MappersReading(1)[0]
	ch.SetMapperOutput(3, moved, 3, 100)
	fs.FailNode(1)
	failed := map[int]bool{1: true}

	plan, err := BuildGraphPlan(ch, topo, fs, 4, failed, Options{Split: true, AliveNodes: nodes - 1})
	if err != nil {
		t.Fatal(err)
	}
	var filterStep *JobStep
	for i := range plan.Steps {
		if plan.Steps[i].Job == 3 {
			filterStep = &plan.Steps[i]
		}
	}
	if filterStep == nil {
		t.Fatalf("no filter step in %+v", plan.Steps)
	}
	found := false
	for _, m := range filterStep.SplitInvalidated {
		if m == moved {
			found = true
		}
	}
	if !found {
		t.Fatalf("filter mapper %d consumed a split partition but was not invalidated: %+v", moved, filterStep)
	}
	// Enrich (job 2) is not a step, but its mappers reading base partition 1
	// must be named for invalidation.
	for _, s := range plan.Steps {
		if s.Job == 2 {
			t.Fatalf("surviving branch re-ran: %+v", plan.Steps)
		}
	}
	wantInvalid := map[int]bool{}
	for _, mi := range ch.Job(2).MappersReading(1) {
		wantInvalid[mi] = true
	}
	gotInvalid := map[int]bool{}
	for _, ref := range plan.Invalidated {
		if ref.Job != 2 {
			t.Fatalf("invalidated ref in job %d, want enrich(2): %+v", ref.Job, plan.Invalidated)
		}
		gotInvalid[ref.Mapper] = true
	}
	if !reflect.DeepEqual(wantInvalid, gotInvalid) {
		t.Fatalf("invalidated %v, want %v", gotInvalid, wantInvalid)
	}
}

// A pending job can consume a long-completed file — a dependency shape no
// chain has. Losing that old file must seed the cascade even when the
// frontier's immediate input is fully intact.
func TestPendingConsumerSeedsOldProducer(t *testing.T) {
	g, err := middleware.NewGraph([]middleware.Job{
		{ID: "a", Inputs: []string{"input"}, Outputs: []string{"fa"}},
		{ID: "b", Inputs: []string{"fa"}, Outputs: []string{"fb"}},
		{ID: "c", Inputs: []string{"fa", "fb"}, Outputs: []string{"fc"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	const nodes, bpp = 4, 1
	// fb replicated: the failure damages only fa, which the running job c
	// reads directly.
	ch, fs := buildGraphLineage(t, topo, nodes, bpp, 2, map[int]int{2: 2})
	fs.FailNode(1)
	failed := map[int]bool{1: true}

	plan, err := BuildGraphPlan(ch, topo, fs, 3, failed, Options{AliveNodes: nodes - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Job != 1 {
		t.Fatalf("steps %+v, want job a(1) only", plan.Steps)
	}
	if len(plan.Steps[0].Reducers) != 1 || plan.Steps[0].Reducers[0].Reducer != 1 {
		t.Fatalf("job a regenerates %+v, want partition 1", plan.Steps[0].Reducers)
	}
}

// TestLostInputAtFrontier loses the sole replica of an original input
// partition while job 1 runs: job 1 restarts over its whole input, so the
// planner must report the loss rather than return a plan that restarts it
// on unreadable blocks.
func TestLostInputAtFrontier(t *testing.T) {
	topo := linearTopology(t, 2)
	fs := dfs.New(100)
	fs.Create("input", 2)
	fs.SetPartition("input", 0, 100, [][]int{{0}})
	fs.SetPartition("input", 1, 100, [][]int{{1}})
	fs.FailNode(1)
	_, err := BuildGraphPlan(lineage.NewChain(), topo, fs, 1, map[int]bool{1: true}, Options{AliveNodes: 1})
	if err == nil || !strings.Contains(err.Error(), `original input partition 1 of "input" lost`) {
		t.Fatalf("got %v, want the lost-input error", err)
	}
}

// Reclamation on the diamond: checkpointing enrich must not reclaim base —
// filter (outside enrich's ancestry) still reads it.
func TestGraphReclaimKeepsSurvivingBranchInputs(t *testing.T) {
	const nodes, bpp = 4, 1
	topo := diamondTopology(t)
	ch, _ := buildGraphLineage(t, topo, nodes, bpp, 3, nil)
	r, err := GraphReclaimableBefore(ch, topo, 2) // checkpoint enrich
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Files) != 0 {
		t.Fatalf("reclaimed files %v, want none (filter still reads base)", r.Files)
	}
	// Enrich's own map outputs are reclaimable (its output is checkpointed),
	// but prep's are not: prep's file survives, so its map outputs may still
	// be reused by a filter-branch recovery.
	if !reflect.DeepEqual(r.MapOutputJobs, []int{2}) {
		t.Fatalf("map-output jobs %v, want [2]", r.MapOutputJobs)
	}

	// Checkpointing join (everything is its ancestry) reclaims all three
	// intermediate files and every completed ancestor's map outputs.
	ch, _ = buildGraphLineage(t, topo, nodes, bpp, 4, nil)
	r, err = GraphReclaimableBefore(ch, topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Files, []string{"base", "enr", "flt"}) {
		t.Fatalf("files %v, want base/enr/flt", r.Files)
	}
	if !reflect.DeepEqual(r.MapOutputJobs, []int{1, 2, 3, 4}) {
		t.Fatalf("map-output jobs %v, want 1..4", r.MapOutputJobs)
	}
}

func TestTopologyRejectsMultiOutput(t *testing.T) {
	g, err := middleware.NewGraph([]middleware.Job{
		{ID: "a", Inputs: []string{"input"}, Outputs: []string{"x", "y"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTopology(g); err == nil {
		t.Fatal("multi-output job accepted")
	}
}

func TestGraphPlanBadFailedJob(t *testing.T) {
	ch, fs := buildChain(t, 4, 3, 1, 2, 1)
	topo := linearTopology(t, 3)
	if _, err := BuildGraphPlan(ch, topo, fs, 0, nil, Options{}); err == nil {
		t.Fatal("failedJob 0 accepted")
	}
	if _, err := BuildGraphPlan(ch, topo, fs, 9, nil, Options{}); err == nil {
		t.Fatal("failedJob beyond chain accepted")
	}
}
