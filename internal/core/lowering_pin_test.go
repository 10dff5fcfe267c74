package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
)

// This file pins the lowering of the chain planner onto the graph planner
// before the chain planner's own body is deleted: referenceBuildPlan and
// referenceReclaimableBefore are verbatim copies of BuildPlan's and
// ReclaimableBefore's bodies, and the lowered forms are what those two
// functions become. The file goes away with the bodies it copies.

// referenceBuildPlan is BuildPlan's chain-only body, verbatim.
func referenceBuildPlan(ch *lineage.Chain, fs *dfs.FS, failedJob int, failed map[int]bool, opts Options) (*Plan, error) {
	// The interrupted job has no lineage record yet (records are written on
	// completion), so failedJob may exceed the chain by exactly one.
	if failedJob < 1 || failedJob > ch.Len()+1 {
		return nil, fmt.Errorf("core: failed job %d outside chain of %d jobs", failedJob, ch.Len())
	}
	plan := &Plan{RestartJob: failedJob}

	// need[j] is the set of output partitions of job j that must be
	// regenerated. The restarted job needs its complete input, so every
	// lost partition of job failedJob-1's output seeds the cascade.
	need := make(map[int]map[int]bool)
	addNeed := func(job, part int) {
		if need[job] == nil {
			need[job] = make(map[int]bool)
		}
		need[job][part] = true
	}
	if failedJob > 1 {
		prev := ch.Job(failedJob - 1)
		if !prev.Completed {
			return nil, fmt.Errorf("core: job %d ran before its input job %d completed", failedJob, prev.ID)
		}
		for _, r := range prev.Reducers {
			if !fs.PartitionAvailable(prev.OutputFile, r.Index) {
				addNeed(prev.ID, r.Index)
			}
		}
	}

	// Backward pass: for each job that must regenerate output partitions,
	// its lost map outputs must be re-executed (recomputed reducers shuffle
	// from every mapper), and the re-executed mappers' lost input
	// partitions extend the cascade one job further back.
	var steps []JobStep
	for j := failedJob - 1; j >= 1; j-- {
		parts := need[j]
		if len(parts) == 0 {
			break // nothing upstream can be required: the cascade has bottomed out
		}
		rec := ch.Job(j)
		step := JobStep{Job: j}
		for p := range parts {
			step.Reducers = append(step.Reducers, ReducerRun{Reducer: p, Splits: opts.splitsFor(rec)})
		}
		sort.Slice(step.Reducers, func(a, b int) bool { return step.Reducers[a].Reducer < step.Reducers[b].Reducer })

		if opts.NoMapOutputReuse {
			step.Mappers = step.Mappers[:0]
			for _, m := range rec.Mappers {
				step.Mappers = append(step.Mappers, m.Index)
			}
		} else {
			step.Mappers = rec.UnavailableMappers(failed)
		}
		for _, mi := range step.Mappers {
			m := rec.Mappers[mi]
			if !fs.PartitionAvailable(rec.InputFile, m.InputPartition) {
				if j == 1 {
					// Job 1 reads the original (replicated) computation input;
					// if that is gone, no recomputation can recover.
					return nil, fmt.Errorf("core: original input partition %d of %q lost; computation unrecoverable",
						m.InputPartition, rec.InputFile)
				}
				addNeed(j-1, m.InputPartition)
			}
		}
		steps = append(steps, step)
	}
	// Reverse into execution (ascending) order.
	for i, k := 0, len(steps)-1; i < k; i, k = i+1, k-1 {
		steps[i], steps[k] = steps[k], steps[i]
	}

	// Forward pass: apply the split-correctness rule. If job j regenerates
	// partition p with >1 splits, every mapper of job j+1 that consumed p
	// must re-run even if its output survived; reusing it would duplicate
	// the keys hashed to other splits and drop the rest (Figure 5). The
	// restarted job re-runs all its mappers anyway, so only steps matter.
	for i := range steps {
		if i+1 >= len(steps) {
			break
		}
		cur, next := &steps[i], &steps[i+1]
		if next.Job != cur.Job+1 {
			return nil, fmt.Errorf("core: internal error: non-contiguous steps %d,%d", cur.Job, next.Job)
		}
		splitParts := make(map[int]bool)
		for _, r := range cur.Reducers {
			if r.Splits > 1 {
				splitParts[r.Reducer] = true
			}
		}
		if len(splitParts) == 0 {
			continue
		}
		already := make(map[int]bool, len(next.Mappers))
		for _, m := range next.Mappers {
			already[m] = true
		}
		nextRec := ch.Job(next.Job)
		for _, m := range nextRec.Mappers {
			if splitParts[m.InputPartition] && !already[m.Index] {
				next.Mappers = append(next.Mappers, m.Index)
				next.SplitInvalidated = append(next.SplitInvalidated, m.Index)
			}
		}
		sort.Ints(next.Mappers)
		sort.Ints(next.SplitInvalidated)
	}

	plan.Steps = steps
	return plan, nil
}

// referenceReclaimableBefore is ReclaimableBefore's body, verbatim.
func referenceReclaimableBefore(ch *lineage.Chain, checkpoint int) (Reclamation, error) {
	var out Reclamation
	cp := ch.Job(checkpoint)
	if cp == nil {
		return out, fmt.Errorf("core: checkpoint job %d not in lineage", checkpoint)
	}
	if !cp.Completed {
		return out, fmt.Errorf("core: checkpoint job %d has not completed", checkpoint)
	}
	for j := 1; j <= checkpoint; j++ {
		rec := ch.Job(j)
		persisted := false
		for _, m := range rec.Mappers {
			if m.Node >= 0 {
				persisted = true
				out.Bytes += m.OutputBytes
			}
		}
		if persisted {
			out.MapOutputJobs = append(out.MapOutputJobs, j)
		}
		if j < checkpoint {
			out.Files = append(out.Files, rec.OutputFile)
		}
	}
	return out, nil
}

func loweredBuildPlan(ch *lineage.Chain, fs *dfs.FS, failedJob int, failed map[int]bool, opts Options) (*Plan, error) {
	if failedJob < 1 || failedJob > ch.Len()+1 {
		return nil, fmt.Errorf("core: failed job %d outside chain of %d jobs", failedJob, ch.Len())
	}
	topo, err := chainTopology(ch, failedJob)
	if err != nil {
		return nil, err
	}
	return BuildGraphPlan(ch, topo, fs, failedJob, failed, opts)
}

func loweredReclaimableBefore(ch *lineage.Chain, checkpoint int) (Reclamation, error) {
	if ch.Job(checkpoint) == nil {
		return Reclamation{}, fmt.Errorf("core: checkpoint job %d not in lineage", checkpoint)
	}
	topo, err := chainTopology(ch, checkpoint)
	if err != nil {
		return Reclamation{}, err
	}
	return GraphReclaimableBefore(ch, topo, checkpoint)
}

// randomChain builds a linear lineage and its DFS with every degree of
// freedom the three BuildPlan callers exercise, beyond buildChain's balanced
// layout: reducer counts that differ per job and from the node count,
// partitions whose blocks sit on different nodes (what a split
// recomputation leaves behind, so a second, nested failure meets it),
// map outputs placed off their input's node or already reclaimed (Node -1),
// non-splittable jobs, an original input replicated 1 to 3 times (so the
// unrecoverable-input error is reachable), and the records of the
// interrupted and later jobs either present (buildChain's convention) or
// absent (dmr's and the functional engine's: recorded on completion).
func randomChain(t testing.TB, rng *rand.Rand) (ch *lineage.Chain, fs *dfs.FS, nodes, failedJob int) {
	t.Helper()
	const blockSize = 100
	nodes = 3 + rng.Intn(6) // 3..8
	jobs := 1 + rng.Intn(6) // 1..6
	failedJob = 1 + rng.Intn(jobs+1)
	recordPending := rng.Intn(2) == 0
	fs = dfs.New(blockSize)
	replicas := func(repl int) []int { return rng.Perm(nodes)[:repl] }
	write := func(file string, parts, repl int) {
		if _, err := fs.Create(file, parts); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < parts; p++ {
			blocks := 1 + rng.Intn(3)
			sizes := make([]int64, blocks)
			sets := make([][]int, blocks)
			for b := range sizes {
				sizes[b] = blockSize
				sets[b] = replicas(repl)
			}
			if rng.Intn(2) == 0 {
				// One writer: every block on the same replica set.
				for b := range sets {
					sets[b] = sets[0]
				}
			}
			if _, err := fs.SetPartitionBlocks(file, p, sizes, sets); err != nil {
				t.Fatal(err)
			}
		}
	}
	inParts := 1 + rng.Intn(8)
	write("input", inParts, 1+rng.Intn(3))

	ch = lineage.NewChain()
	for j := 1; j <= jobs; j++ {
		if j >= failedJob && !recordPending {
			break
		}
		in := "input"
		if j > 1 {
			in = fmt.Sprintf("out%d", j-1)
		}
		rec := &lineage.JobRecord{
			ID:         j,
			Name:       fmt.Sprintf("job%d", j),
			InputFile:  in,
			OutputFile: fmt.Sprintf("out%d", j),
			Splittable: rng.Intn(4) != 0,
			Completed:  j < failedJob,
		}
		for p := 0; p < inParts; p++ {
			for b, bpp := 0, 1+rng.Intn(3); b < bpp; b++ {
				node := p % nodes
				switch rng.Intn(6) {
				case 0:
					node = rng.Intn(nodes)
				case 1:
					node = -1
				}
				rec.Mappers = append(rec.Mappers, lineage.MapperMeta{
					Index: len(rec.Mappers), InputPartition: p, InputBlock: b,
					InputBytes: blockSize, OutputBytes: blockSize, Node: node,
				})
			}
		}
		reducers := 1 + rng.Intn(8)
		for r := 0; r < reducers; r++ {
			rec.Reducers = append(rec.Reducers, lineage.ReducerMeta{Index: r, OutputBytes: blockSize, Nodes: []int{r % nodes}})
		}
		if err := ch.Append(rec); err != nil {
			t.Fatal(err)
		}
		if rec.Completed {
			write(rec.OutputFile, reducers, 1+rng.Intn(2))
		}
		inParts = reducers
	}
	return ch, fs, nodes, failedJob
}

// randomFailures fails 1..3 nodes (never all): the accumulated set a plan
// built during a nested failure sees.
func randomFailures(rng *rand.Rand, fs *dfs.FS, nodes int) map[int]bool {
	k := 1 + rng.Intn(3)
	if k >= nodes {
		k = nodes - 1
	}
	failed := make(map[int]bool, k)
	for _, n := range rng.Perm(nodes)[:k] {
		failed[n] = true
		fs.FailNode(n)
	}
	return failed
}

func TestLoweredBuildPlanEqualsReference(t *testing.T) {
	var plans, steps, nested, splitInvalidated, unrecoverable, incomplete, outOfRange int
	for seed := int64(0); seed < 6000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ch, fs, nodes, failedJob := randomChain(t, rng)
		failed := randomFailures(rng, fs, nodes)
		opts := Options{
			Split:            rng.Intn(2) == 0,
			SplitRatio:       rng.Intn(5),
			AliveNodes:       nodes - len(failed),
			NoMapOutputReuse: rng.Intn(4) == 0,
		}
		switch rng.Intn(20) {
		case 0:
			failedJob = -1 + rng.Intn(2) // -1 or 0
		case 1:
			failedJob = ch.Len() + 2 + rng.Intn(2)
		case 2:
			if failedJob > 1 {
				ch.Job(failedJob - 1).Completed = false
			}
		}
		want, wantErr := referenceBuildPlan(ch, fs, failedJob, failed, opts)
		got, gotErr := loweredBuildPlan(ch, fs, failedJob, failed, opts)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("seed %d: error mismatch:\nreference: %v\nlowered:   %v", seed, wantErr, gotErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: plan mismatch:\nreference: %+v\nlowered:   %+v", seed, want, got)
		}
		switch {
		case wantErr == nil:
			plans++
			steps += len(want.Steps)
			if len(failed) > 1 && len(want.Steps) > 0 {
				nested++
			}
			for _, s := range want.Steps {
				splitInvalidated += len(s.SplitInvalidated)
			}
		case failedJob < 1 || failedJob > ch.Len()+1:
			outOfRange++
		case !ch.Job(failedJob - 1).Completed:
			incomplete++
		default:
			unrecoverable++
		}
	}
	t.Logf("%d plans (%d steps, %d with several failed nodes, %d split-invalidated mappers), errors: %d unrecoverable input, %d incomplete input job, %d out of range",
		plans, steps, nested, splitInvalidated, unrecoverable, incomplete, outOfRange)
	// The comparison only means something if the generator reaches every
	// branch of the cascade and every error.
	for name, n := range map[string]int{"plans": plans, "steps": steps, "nested": nested, "split-invalidated": splitInvalidated,
		"unrecoverable": unrecoverable, "incomplete": incomplete, "out-of-range": outOfRange} {
		if n < 20 {
			t.Errorf("generator reached %q only %d times", name, n)
		}
	}
}

// The balanced chains of planner_test.go (records for pending jobs present,
// one reducer per node), over the scenario grid its property test draws from.
func TestLoweredBuildPlanEqualsReferenceOnBalancedChains(t *testing.T) {
	for nodes := 4; nodes <= 8; nodes++ {
		for jobs := 2; jobs <= 6; jobs++ {
			for failedJob := 1; failedJob <= jobs; failedJob++ {
				for a := 0; a < nodes; a++ {
					for b := a; b < nodes; b += 2 {
						for _, opts := range []Options{{}, {Split: true}, {Split: true, SplitRatio: 3}, {NoMapOutputReuse: true}, {Split: true, NoMapOutputReuse: true}} {
							ch, fs := buildChain(t, nodes, jobs, 1+(nodes+jobs)%3, failedJob-1, 1)
							failed := map[int]bool{a: true, b: true}
							for n := range failed {
								fs.FailNode(n)
							}
							opts.AliveNodes = nodes - len(failed)
							want, wantErr := referenceBuildPlan(ch, fs, failedJob, failed, opts)
							got, gotErr := loweredBuildPlan(ch, fs, failedJob, failed, opts)
							if wantErr != nil || gotErr != nil {
								t.Fatalf("nodes %d jobs %d failedJob %d failed %v: reference err %v, lowered err %v", nodes, jobs, failedJob, failed, wantErr, gotErr)
							}
							if !reflect.DeepEqual(want, got) {
								t.Fatalf("nodes %d jobs %d failedJob %d failed %v opts %+v:\nreference: %+v\nlowered:   %+v", nodes, jobs, failedJob, failed, opts, want, got)
							}
						}
					}
				}
			}
		}
	}
}

func TestLoweredReclaimableBeforeEqualsReference(t *testing.T) {
	var ok, bad int
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ch, _, _, _ := randomChain(t, rng)
		for cp := -1; cp <= ch.Len()+2; cp++ {
			want, wantErr := referenceReclaimableBefore(ch, cp)
			got, gotErr := loweredReclaimableBefore(ch, cp)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("seed %d checkpoint %d: error mismatch:\nreference: %v\nlowered:   %v", seed, cp, wantErr, gotErr)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d checkpoint %d:\nreference: %+v\nlowered:   %+v", seed, cp, want, got)
			}
			if wantErr == nil {
				ok++
			} else {
				bad++
			}
		}
	}
	if ok < 100 || bad < 100 {
		t.Fatalf("generator reached %d reclamations and %d errors", ok, bad)
	}
}
