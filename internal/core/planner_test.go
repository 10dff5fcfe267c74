package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/middleware"
)

// buildChain constructs a balanced chain of jobs like the paper's 7-job
// workload: N nodes, one reducer per node per job, blocksPerPart blocks per
// partition, one mapper per block, data-local placement (partition p is
// written by and stored on node p%N, and p's mappers run there too).
// completed jobs are 1..completed; job completed+1 is "running".
// repl is the DFS replication factor for job outputs.
func buildChain(t testing.TB, nodes, jobs, blocksPerPart, completed, repl int) (*lineage.Chain, *dfs.FS) {
	t.Helper()
	const blockSize = 100
	fs := dfs.New(blockSize)
	all := make([]int, nodes)
	for i := range all {
		all[i] = i
	}
	// Original input: triple replicated, like the paper.
	if _, err := fs.Create("input", nodes); err != nil {
		t.Fatal(err)
	}
	inRepl := 3
	if inRepl > nodes {
		inRepl = nodes
	}
	for p := 0; p < nodes; p++ {
		sets := [][]int{fs.PlanReplicas(p, inRepl, all)}
		if _, err := fs.SetPartition("input", p, int64(blocksPerPart*blockSize), sets); err != nil {
			t.Fatal(err)
		}
	}
	ch := lineage.NewChain()
	for j := 1; j <= jobs; j++ {
		in := "input"
		if j > 1 {
			in = fmt.Sprintf("out%d", j-1)
		}
		rec := &lineage.JobRecord{
			ID:         j,
			Name:       fmt.Sprintf("job%d", j),
			InputFile:  in,
			OutputFile: fmt.Sprintf("out%d", j),
			Splittable: true,
			Completed:  j <= completed,
		}
		for p := 0; p < nodes; p++ {
			for b := 0; b < blocksPerPart; b++ {
				idx := p*blocksPerPart + b
				rec.Mappers = append(rec.Mappers, lineage.MapperMeta{
					Index:          idx,
					InputPartition: p,
					InputBlock:     b,
					InputBytes:     blockSize,
					OutputBytes:    blockSize,
					Node:           p % nodes,
				})
			}
			rec.Reducers = append(rec.Reducers, lineage.ReducerMeta{
				Index:       p,
				OutputBytes: int64(blocksPerPart * blockSize),
				Nodes:       []int{p % nodes},
			})
		}
		if err := ch.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
		if j <= completed {
			if _, err := fs.Create(rec.OutputFile, nodes); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < nodes; p++ {
				sets := [][]int{fs.PlanReplicas(p%nodes, repl, all)}
				if _, err := fs.SetPartition(rec.OutputFile, p, int64(blocksPerPart*blockSize), sets); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return ch, fs
}

func TestSingleFailureCascadesToStart(t *testing.T) {
	const nodes, jobs, bpp = 10, 7, 2
	ch, fs := buildChain(t, nodes, jobs, bpp, 6, 1)
	failedNode := 3
	fs.FailNode(failedNode)
	failed := map[int]bool{failedNode: true}

	plan, err := BuildPlan(ch, fs, 7, failed, Options{AliveNodes: nodes - 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.RestartJob != 7 {
		t.Fatalf("restart job %d, want 7", plan.RestartJob)
	}
	if len(plan.Steps) != 6 {
		t.Fatalf("%d steps, want 6 (cascade to job 1)", len(plan.Steps))
	}
	for i, s := range plan.Steps {
		if s.Job != i+1 {
			t.Fatalf("step %d is job %d, want %d", i, s.Job, i+1)
		}
		// Exactly 1/N of reducers (the one on the failed node).
		if len(s.Reducers) != 1 || s.Reducers[0].Reducer != failedNode {
			t.Fatalf("job %d reducers %+v, want [{%d 1}]", s.Job, s.Reducers, failedNode)
		}
		if s.Reducers[0].Splits != 1 {
			t.Fatalf("splits %d with Split=false, want 1", s.Reducers[0].Splits)
		}
		// Exactly 1/N of mappers: the ones whose outputs lived on the node.
		if len(s.Mappers) != bpp {
			t.Fatalf("job %d recomputes %d mappers, want %d", s.Job, len(s.Mappers), bpp)
		}
		for _, m := range s.Mappers {
			if ch.Job(s.Job).Mappers[m].Node != failedNode {
				t.Fatalf("job %d recomputes mapper %d whose output survived", s.Job, m)
			}
		}
	}
	m, r := plan.TotalRecomputedTasks()
	if m != 6*bpp || r != 6 {
		t.Fatalf("recomputed %d mappers %d reducers, want %d and 6", m, r, 6*bpp)
	}
}

func TestReplicationStopsCascade(t *testing.T) {
	ch, fs := buildChain(t, 5, 4, 2, 3, 2) // repl 2: single failure loses nothing
	fs.FailNode(1)
	plan, err := BuildPlan(ch, fs, 4, map[int]bool{1: true}, Options{AliveNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Fatalf("replicated chain produced %d recompute steps, want 0", len(plan.Steps))
	}
	if plan.RestartJob != 4 {
		t.Fatalf("restart %d, want 4", plan.RestartJob)
	}
}

func TestSplitRatioAndAuto(t *testing.T) {
	ch, fs := buildChain(t, 10, 3, 1, 2, 1)
	fs.FailNode(0)
	failed := map[int]bool{0: true}

	plan, err := BuildPlan(ch, fs, 3, failed, Options{Split: true, SplitRatio: 8, AliveNodes: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		for _, r := range s.Reducers {
			if r.Splits != 8 {
				t.Fatalf("splits %d, want 8", r.Splits)
			}
		}
	}
	// Auto ratio = alive nodes.
	plan, err = BuildPlan(ch, fs, 3, failed, Options{Split: true, AliveNodes: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Steps[0].Reducers[0].Splits; got != 9 {
		t.Fatalf("auto splits %d, want 9", got)
	}
}

func TestNonSplittableJobNotSplit(t *testing.T) {
	ch, fs := buildChain(t, 6, 3, 1, 2, 1)
	ch.Job(1).Splittable = false
	fs.FailNode(2)
	plan, err := BuildPlan(ch, fs, 3, map[int]bool{2: true}, Options{Split: true, AliveNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		want := 5
		if s.Job == 1 {
			want = 1
		}
		for _, r := range s.Reducers {
			if r.Splits != want {
				t.Fatalf("job %d splits %d, want %d", s.Job, r.Splits, want)
			}
		}
	}
}

func TestSplitInvalidatesSurvivingConsumers(t *testing.T) {
	// 4 nodes, 3 blocks per partition. Fail node 1. Job 2's mappers that
	// read partition 1 (regenerated split) all run on node 1 in this layout,
	// so to observe the Figure 5 rule, relocate one consumer's OUTPUT to a
	// surviving node: it must be re-run anyway, flagged as split-invalidated.
	const nodes, bpp = 4, 3
	ch, fs := buildChain(t, nodes, 3, bpp, 2, 1)
	moved := ch.Job(2).MappersReading(1)[0]
	ch.SetMapperOutput(2, moved, 3, 100) // output now survives on node 3
	fs.FailNode(1)
	failed := map[int]bool{1: true}

	plan, err := BuildPlan(ch, fs, 3, failed, Options{Split: true, AliveNodes: nodes - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("%d steps, want 2", len(plan.Steps))
	}
	job2 := plan.Steps[1]
	found := false
	for _, m := range job2.SplitInvalidated {
		if m == moved {
			found = true
		}
	}
	if !found {
		t.Fatalf("mapper %d consumed a split partition but was not invalidated: %+v", moved, job2)
	}
	if len(job2.Mappers) != bpp {
		t.Fatalf("job 2 recomputes %d mappers, want %d (lost + invalidated)", len(job2.Mappers), bpp)
	}

	// Without splitting the surviving output is reused.
	plan, err = BuildPlan(ch, fs, 3, failed, Options{AliveNodes: nodes - 1})
	if err != nil {
		t.Fatal(err)
	}
	job2 = plan.Steps[1]
	for _, m := range job2.Mappers {
		if m == moved {
			t.Fatal("surviving map output re-run without splitting")
		}
	}
	reused := ReusedMapOutputs(ch, job2)
	foundReuse := false
	for _, m := range reused {
		if m.Index == moved {
			foundReuse = true
		}
	}
	if !foundReuse {
		t.Fatal("surviving output not listed as reused")
	}
}

func TestNestedFailuresAccumulate(t *testing.T) {
	ch, fs := buildChain(t, 8, 5, 1, 4, 1)
	fs.FailNode(2)
	fs.FailNode(5)
	failed := map[int]bool{2: true, 5: true}
	plan, err := BuildPlan(ch, fs, 5, failed, Options{AliveNodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		if len(s.Reducers) != 2 {
			t.Fatalf("job %d regenerates %d partitions, want 2 (both failures)", s.Job, len(s.Reducers))
		}
	}
}

func TestUnrecoverableInput(t *testing.T) {
	// Single-replicated original input: failing its holder makes recovery
	// impossible and the planner must say so.
	fs := dfs.New(100)
	fs.Create("input", 2)
	fs.SetPartition("input", 0, 100, [][]int{{0}})
	fs.SetPartition("input", 1, 100, [][]int{{1}})
	ch := lineage.NewChain()
	rec := &lineage.JobRecord{ID: 1, InputFile: "input", OutputFile: "out1", Splittable: true, Completed: true}
	for p := 0; p < 2; p++ {
		rec.Mappers = append(rec.Mappers, lineage.MapperMeta{Index: p, InputPartition: p, Node: p})
		rec.Reducers = append(rec.Reducers, lineage.ReducerMeta{Index: p, Nodes: []int{p}})
	}
	ch.AppendRecord(rec)
	ch.AppendRecord(&lineage.JobRecord{ID: 2, InputFile: "out1", OutputFile: "out2", Splittable: true,
		Mappers:  []lineage.MapperMeta{{Index: 0, InputPartition: 0, Node: 0}, {Index: 1, InputPartition: 1, Node: 1}},
		Reducers: []lineage.ReducerMeta{{Index: 0, Nodes: []int{0}}, {Index: 1, Nodes: []int{1}}}})
	fs.Create("out1", 2)
	fs.SetPartition("out1", 0, 100, [][]int{{0}})
	fs.SetPartition("out1", 1, 100, [][]int{{1}})
	fs.FailNode(0)
	if _, err := BuildPlan(ch, fs, 2, map[int]bool{0: true}, Options{AliveNodes: 1}); err == nil {
		t.Fatal("lost original input did not error")
	}
}

func TestBadFailedJob(t *testing.T) {
	ch, fs := buildChain(t, 4, 3, 1, 2, 1)
	if _, err := BuildPlan(ch, fs, 0, nil, Options{}); err == nil {
		t.Fatal("failedJob 0 accepted")
	}
	if _, err := BuildPlan(ch, fs, 9, nil, Options{}); err == nil {
		t.Fatal("failedJob beyond chain accepted")
	}
}

func TestFailureAtJob1RestartOnly(t *testing.T) {
	ch, fs := buildChain(t, 5, 3, 1, 0, 1)
	fs.FailNode(1)
	plan, err := BuildPlan(ch, fs, 1, map[int]bool{1: true}, Options{AliveNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 || plan.RestartJob != 1 {
		t.Fatalf("plan for job-1 failure: %+v", plan)
	}
}

// TestBuildPlanEmptyLineageLostInput: a loss found before the first job
// completes leaves an empty lineage, and the interrupted job 1 re-reads
// the external input in full, so a partition with every replica on failed
// nodes must make the plan fail, exactly as BuildGraphPlan over the
// chain's topology does.
func TestBuildPlanEmptyLineageLostInput(t *testing.T) {
	fs := dfs.New(100)
	fs.Create("input", 2)
	fs.SetPartition("input", 0, 100, [][]int{{0, 1, 2}})
	fs.SetPartition("input", 1, 100, [][]int{{3, 4, 5}})
	failed := map[int]bool{0: true, 1: true, 2: true}
	for n := range failed {
		fs.FailNode(n)
	}
	plan, err := BuildPlan(lineage.NewChain(), fs, 1, failed, Options{AliveNodes: 3})
	const want = `core: original input partition 0 of "input" lost; computation unrecoverable`
	if err == nil || err.Error() != want {
		t.Fatalf("BuildPlan = %+v, %v; want error %q", plan, err, want)
	}
}

// Property: the plan is minimal and sufficient, on random chains and on
// random DAGs. Minimal: every recomputed reducer's partition was
// unavailable and is read by a re-run mapper of a later step or by a job
// that restarts or is pending (those re-read every input in full), and
// every recomputed mapper either lost its output or consumed a partition
// its producer's step regenerated by splits. Sufficient: replaying the
// plan (marking regenerated partitions) leaves every recomputed mapper's
// input available when its step runs, and every input the restarted and
// pending jobs read from completed jobs whole. The DAGs have fan-in,
// surviving branches (replicated outputs), pending jobs reading
// long-completed files and mappers that ran off their input's node. Under
// NoMapOutputReuse every mapper of a step re-runs, so mapper minimality is
// not checked but sufficiency is.
func TestPlanMinimalAndSufficientProperty(t *testing.T) {
	chains := func(seed uint16, failA, failB uint8, split bool) bool {
		nodes := 4 + int(seed)%5 // 4..8
		jobs := 2 + int(seed)%5  // 2..6
		bpp := 1 + int(seed)%3
		failedJob := 1 + int(seed>>4)%jobs
		ch, fs := buildChain(t, nodes, jobs, bpp, failedJob-1, 1)
		failed := failNodes(fs, nodes, failA, failB)
		if failed == nil {
			return true // everything dead; not a recoverable scenario
		}
		plan, err := BuildPlan(ch, fs, failedJob, failed, Options{Split: split, AliveNodes: nodes - len(failed)})
		if err != nil {
			t.Log(err)
			return false
		}
		return planHolds(t, ch, fs, failed, plan, false)
	}
	dags := func(seed int64, failA, failB uint8, split, noReuse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes, bpp := 4+rng.Intn(5), 1+rng.Intn(3)
		n := 2 + rng.Intn(5)
		jobs := make([]middleware.Job, 0, n)
		for i := 1; i <= n; i++ {
			// The first input is most often the previous job's output, the
			// second (fan-in) any earlier file, the external input included.
			files := []string{"input"}
			for k := 1; k < i; k++ {
				files = append(files, fmt.Sprintf("f%d", k))
			}
			in := []string{files[len(files)-1]}
			if rng.Intn(3) == 0 {
				in[0] = files[rng.Intn(len(files))]
			}
			if other := files[rng.Intn(len(files))]; rng.Intn(2) == 0 && other != in[0] {
				in = append(in, other)
			}
			jobs = append(jobs, middleware.Job{ID: middleware.JobID(fmt.Sprintf("j%d", i)), Inputs: in, Output: fmt.Sprintf("f%d", i)})
		}
		g, err := middleware.NewGraph(jobs)
		if err != nil {
			t.Log(err)
			return false
		}
		topo, err := NewTopology(g)
		if err != nil {
			t.Log(err)
			return false
		}
		repl := map[int]int{}
		for j := 1; j <= n; j++ {
			if rng.Intn(3) == 0 {
				repl[j] = 2 // a branch that survives a single loss
			}
		}
		failedJob := 1 + rng.Intn(n)
		ch, fs := buildGraphLineage(t, topo, nodes, bpp, failedJob-1, repl)
		// Some mappers ran away from their input, so a lost input partition
		// does not imply a lost map output.
		for j := 1; j < failedJob; j++ {
			for _, m := range ch.Job(j).Mappers {
				if rng.Intn(4) == 0 {
					ch.SetMapperOutput(j, m.Index, rng.Intn(nodes), m.OutputBytes)
				}
			}
		}
		failed := failNodes(fs, nodes, failA, failB)
		if failed == nil {
			return true
		}
		plan, err := BuildGraphPlan(ch, topo, fs, failedJob, failed,
			Options{Split: split, AliveNodes: nodes - len(failed), NoMapOutputReuse: noReuse})
		if err != nil {
			t.Log(err)
			return false
		}
		return planHolds(t, ch, fs, failed, plan, noReuse)
	}
	if err := quick.Check(chains, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal("chain:", err)
	}
	if err := quick.Check(dags, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal("DAG:", err)
	}
}

// failNodes fails node failA (and failB when it is even) and returns the
// failed set, or nil when no node is left alive.
func failNodes(fs *dfs.FS, nodes int, failA, failB uint8) map[int]bool {
	failed := map[int]bool{int(failA) % nodes: true}
	if failB%2 == 0 {
		failed[int(failB)%nodes] = true
	}
	if len(failed) == nodes {
		return nil
	}
	for n := range failed {
		fs.FailNode(n)
	}
	return failed
}

// planViolation reports (through t.Log) and returns false on the first
// way the plan is not minimal or not sufficient, as the property above
// states them; every job of ch has a record.
func planHolds(t *testing.T, ch *lineage.Chain, fs *dfs.FS, failed map[int]bool, plan *Plan, noReuse bool) bool {
	fail := func(format string, args ...any) bool {
		t.Logf(format, args...)
		return false
	}
	if err := CheckPlan(ch, fs, failed, plan, !noReuse); err != nil {
		return fail("%v", err)
	}
	inputs := func(rec *lineage.JobRecord) []string {
		if len(rec.InputFiles) > 0 {
			return rec.InputFiles
		}
		return []string{rec.InputFile}
	}
	type part struct {
		file string
		p    int
	}
	producer := map[string]int{}
	for j := 1; j <= ch.Len(); j++ {
		producer[ch.Job(j).OutputFile] = j
	}
	// read marks what the restarted and pending jobs and the re-run mappers
	// read; regenerated and splitRegen what the steps replayed so far made.
	read := map[part]bool{}
	regenerated, splitRegen := map[part]bool{}, map[part]bool{}
	avail := func(x part) bool { return regenerated[x] || fs.PartitionAvailable(x.file, x.p) }
	for _, s := range plan.Steps {
		rec := ch.Job(s.Job)
		invalid := map[int]bool{}
		for _, m := range s.SplitInvalidated {
			invalid[m] = true
		}
		for _, mi := range s.Mappers {
			m := rec.Mappers[mi]
			in := part{rec.InputFileAt(m.InFile), m.InputPartition}
			read[in] = true
			if !avail(in) {
				return fail("job %d mapper %d re-runs before its input %v is regenerated", s.Job, mi, in)
			}
			if !noReuse && !failed[m.Node] && !(invalid[mi] && splitRegen[in]) {
				return fail("job %d re-runs mapper %d, whose output survives and whose input was not split", s.Job, mi)
			}
		}
		for _, r := range s.Reducers {
			out := part{rec.OutputFile, r.Reducer}
			regenerated[out] = true
			if r.Splits > 1 {
				splitRegen[out] = true
			}
		}
	}
	for j := plan.RestartJob; j <= ch.Len(); j++ {
		for _, in := range inputs(ch.Job(j)) {
			p := producer[in]
			if p >= plan.RestartJob {
				continue // written again by a pending job
			}
			for x := 0; x < len(fs.File(in).Partitions); x++ {
				read[part{in, x}] = true
				if !avail(part{in, x}) {
					return fail("job %d restarts or is pending with input %s/p%d lost", j, in, x)
				}
			}
		}
	}
	for x := range regenerated {
		if !read[x] {
			return fail("plan regenerates %s/p%d, which nothing that runs reads", x.file, x.p)
		}
	}
	return true
}
