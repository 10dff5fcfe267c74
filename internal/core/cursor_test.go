package core

import (
	"fmt"
	"reflect"
	"testing"

	"rcmp/internal/lineage"
)

// cursorHarness drives a cursor over the linear topology of ref's jobs,
// committing full runs with ref's task metas and steps as re-run on node
// `to`.
type cursorHarness struct {
	t    *testing.T
	ref  *lineage.Chain
	cur  Cursor
	runs []string
}

func newCursorHarness(t *testing.T, ref *lineage.Chain, p Policy) *cursorHarness {
	topo, err := LinearTopology(ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	return &cursorHarness{t: t, ref: ref, cur: NewCursor(topo, p)}
}

// step hands out the next run, logs it and commits it; it returns what
// the commit reclaimed.
func (h *cursorHarness) step(to int) Reclamation {
	h.t.Helper()
	run, ok := h.cur.Next()
	if !ok {
		h.t.Fatal("cursor finished early")
	}
	h.runs = append(h.runs, fmt.Sprintf("%s %d", run.Kind, run.Job))
	want := h.ref.Job(run.Job)
	rec := &lineage.JobRecord{}
	if run.Step == nil {
		rec.Mappers = append(rec.Mappers, want.Mappers...)
		rec.Reducers = append(rec.Reducers, want.Reducers...)
	} else {
		for _, mi := range run.Step.Mappers {
			m := want.Mappers[mi]
			m.Node = to
			rec.Mappers = append(rec.Mappers, m)
		}
		for _, rr := range run.Step.Reducers {
			rec.Reducers = append(rec.Reducers, lineage.ReducerMeta{Index: rr.Reducer, Nodes: []int{to}})
		}
	}
	rcl, err := h.cur.Done(run, rec)
	if err != nil {
		h.t.Fatal(err)
	}
	return rcl
}

// TestCursorRunKindsAndEpisodes walks a 3-job chain through a loss while
// job 2 runs, a second loss before job 2's restart, and a loss at the
// boundary before job 3. Plan steps come first, a job handed out again is
// a restart, a first hand-out is initial even after a boundary loss, and
// only a loss found outside a recovery opens an episode, while every
// adopted plan is recorded.
func TestCursorRunKindsAndEpisodes(t *testing.T) {
	ref, fs := buildChain(t, 4, 3, 1, 3, 1)
	h := newCursorHarness(t, ref, Policy{})
	failed := map[int]bool{}
	lose := func(node int) bool {
		t.Helper()
		failed[node] = true
		fs.FailNode(node)
		plan, err := h.cur.Plan(fs, failed, 4-len(failed))
		if err != nil {
			t.Fatal(err)
		}
		return h.cur.Recover(plan)
	}
	drain := func() {
		for h.cur.Queued() > 0 {
			h.step(3)
		}
	}

	h.step(3)               // job 1
	run, ok := h.cur.Next() // job 2 starts, and a loss cancels it
	if !ok {
		t.Fatal("cursor finished after job 1")
	}
	h.runs = append(h.runs, fmt.Sprintf("%s %d (lost)", run.Kind, run.Job))
	if !lose(0) {
		t.Fatal("a loss during job 2 opened no episode")
	}
	h.step(3)
	if lose(1) {
		t.Fatal("a loss before job 2's restart opened a second episode")
	}
	drain()
	h.step(3) // job 2's restart
	if !lose(2) {
		t.Fatal("a loss at the boundary before job 3 opened no episode")
	}
	drain()
	h.step(3) // job 3
	if _, ok := h.cur.Next(); ok || !h.cur.Finished() {
		t.Fatal("cursor not finished after job 3")
	}

	want := []string{
		"initial 1", "initial 2 (lost)", "recompute 1", "recompute 1",
		"restart 2", "recompute 1", "recompute 2", "initial 3",
	}
	if !reflect.DeepEqual(h.runs, want) {
		t.Fatalf("runs %q, want %q", h.runs, want)
	}
	// The record holds every adopted plan, the folded loss's too.
	var frontiers []int
	for _, ep := range h.cur.Episodes() {
		frontiers = append(frontiers, ep.Frontier)
	}
	if !reflect.DeepEqual(frontiers, []int{2, 2, 3}) {
		t.Fatalf("recorded plans at frontiers %v, want [2 2 3]", frontiers)
	}
	ch := h.cur.Lineage()
	if rec := ch.Job(2); rec.Name != "job2" || rec.InputFile != "out1" || rec.OutputFile != "out2" || !rec.Completed {
		t.Fatalf("job 2 record named %q %q -> %q, completed %v", rec.Name, rec.InputFile, rec.OutputFile, rec.Completed)
	}
	if n := ch.Job(1).Mappers[2].Node; n != 3 {
		t.Fatalf("job 1 mapper 2 on node %d after its recomputation, want 3", n)
	}
	if nodes := ch.Job(2).Reducers[2].Nodes; !reflect.DeepEqual(nodes, []int{3}) {
		t.Fatalf("job 2 reducer 2 on %v after its recomputation, want [3]", nodes)
	}
}

// TestCursorReclaimsBehindCheckpoints holds the checkpoint decision: with
// every 2nd job replicated, completing job 2 reclaims job 1's file and the
// map outputs of jobs 1 and 2; no other job reclaims anything.
func TestCursorReclaimsBehindCheckpoints(t *testing.T) {
	ref, _ := buildChain(t, 3, 3, 1, 3, 1)
	h := newCursorHarness(t, ref, Policy{HybridEveryK: 2, HybridRepl: 2, ReclaimAtCheckpoints: true})
	for job := 1; job <= 3; job++ {
		rcl := h.step(0)
		if job != 2 {
			if len(rcl.Files)+len(rcl.MapOutputJobs) != 0 {
				t.Fatalf("job %d reclaimed %+v", job, rcl)
			}
			continue
		}
		if !reflect.DeepEqual(rcl.Files, []string{"out1"}) || !reflect.DeepEqual(rcl.MapOutputJobs, []int{1, 2}) {
			t.Fatalf("checkpoint job 2 reclaimed %+v, want out1 and the map outputs of jobs 1 and 2", rcl)
		}
		if got := h.cur.Lineage().Job(1).UnavailableMappers(nil); len(got) != len(ref.Job(1).Mappers) {
			t.Fatalf("job 1 mappers %v gone after reclamation, want all", got)
		}
	}
}

// TestCaptureEpisode holds the record's partition-granularity snapshot:
// regenerated partitions ascending with their splits (0 read as 1), and
// the step's input partitions split by whether a mapper re-runs or keeps
// its persisted output.
func TestCaptureEpisode(t *testing.T) {
	ch := lineage.NewChain()
	if err := ch.AppendRecord(&lineage.JobRecord{
		ID: 1, Name: "j1", InputFile: "in", OutputFile: "f1", Splittable: true, Completed: true,
		Mappers: []lineage.MapperMeta{
			{Index: 0, InputPartition: 0, Node: 2},
			{Index: 1, InputPartition: 1, Node: 1},
			{Index: 2, InputPartition: 1, Node: 1},
		},
		Reducers: []lineage.ReducerMeta{{Index: 0}, {Index: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	plan := &Plan{
		RestartJob: 2,
		Steps: []JobStep{{
			Job:     1,
			Mappers: []int{0},
			Reducers: []ReducerRun{
				{Reducer: 1, Splits: 2},
				{Reducer: 0, Splits: 0},
			},
		}},
	}
	want := Episode{Frontier: 2, RestartJob: 2, Steps: []StepDecision{{
		Job: 1, Partitions: []int{0, 1}, Splits: []int{1, 2}, RerunParts: []int{0}, ReusedParts: []int{1},
	}}}
	if ep := captureEpisode(2, plan, ch); !reflect.DeepEqual(ep, want) {
		t.Fatalf("episode = %+v, want %+v", ep, want)
	}
}
