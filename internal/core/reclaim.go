package core

import (
	"fmt"
	"sort"

	"rcmp/internal/lineage"
)

// This file implements the storage-management side of Section IV-C: after
// a hybrid checkpoint (a replicated job output) the persisted task outputs
// of older jobs can never be needed by a recovery again and may be
// reclaimed; and in storage-constrained settings RCMP can evict persisted
// map outputs even between checkpoints, at the granularity of waves, which
// the paper names as future work and sketches exactly this way.

// Reclamation lists persisted artifacts that are safe to drop.
type Reclamation struct {
	// MapOutputJobs are the jobs whose entire persisted map output sets are
	// reclaimable.
	MapOutputJobs []int
	// Files are intermediate job-output files no recovery can need.
	Files []string
	// Bytes is the total persisted map-output volume freed.
	Bytes int64
}

// ReclaimableBefore computes what a completed, replicated checkpoint job
// makes reclaimable on a linear chain: the map outputs of every job up to
// and including the checkpoint (a cascade stops at the checkpoint's
// surviving output, so those jobs are never partially re-executed), and the
// output files of jobs strictly before it (only the checkpoint file itself
// can ever be read again, by the checkpoint's consumer). It is a lowering
// onto GraphReclaimableBefore over LinearTopology(checkpoint), whose file
// names the lineage must use.
func ReclaimableBefore(ch *lineage.Chain, checkpoint int) (Reclamation, error) {
	if ch.Job(checkpoint) == nil {
		return Reclamation{}, fmt.Errorf("core: checkpoint job %d not in lineage", checkpoint)
	}
	topo, err := LinearTopology(checkpoint)
	if err != nil {
		return Reclamation{}, err
	}
	return GraphReclaimableBefore(ch, topo, checkpoint)
}

// ApplyReclamation marks the reclaimed map outputs as gone in the lineage
// (Node -1), so any later planner run knows those mappers would have to
// re-execute. The caller deletes the listed files from its DFS.
func ApplyReclamation(ch *lineage.Chain, r Reclamation) {
	for _, j := range r.MapOutputJobs {
		rec := ch.Job(j)
		for _, m := range rec.Mappers {
			if m.Node >= 0 {
				ch.SetMapperOutput(j, m.Index, -1, m.OutputBytes)
			}
		}
	}
}

// WaveRef identifies one scheduling wave of persisted map outputs of a job.
type WaveRef struct {
	Job     int
	Wave    int
	Mappers []int
	Bytes   int64
}

// EvictionPlan is a storage-pressure response: waves of persisted map
// outputs to drop, cheapest expected recomputation impact first.
type EvictionPlan struct {
	Waves []WaveRef
	// Freed is the persisted bytes released by the plan.
	Freed int64
	// ExpectedExtraBytes is the probability-weighted volume of map input
	// that future recoveries would re-process because of the eviction,
	// under a uniform failure-position assumption.
	ExpectedExtraBytes float64
}

// PlanEviction chooses persisted map-output waves to evict until at least
// needBytes are freed. waveSlots is the cluster's concurrent mapper
// capacity (nodes x map slots), which defines wave boundaries — the paper
// proposes exactly wave-granularity deletion.
//
// The policy minimizes expected recomputation cost: a failure while job F
// runs recomputes jobs 1..F-1, so the map outputs of job j are needed with
// probability proportional to the number of future frontiers beyond j.
// Later jobs' outputs are therefore the cheapest to evict, and within a
// job, larger waves free space fastest.
func PlanEviction(ch *lineage.Chain, needBytes int64, waveSlots int) (EvictionPlan, error) {
	var plan EvictionPlan
	if waveSlots <= 0 {
		return plan, fmt.Errorf("core: waveSlots %d", waveSlots)
	}
	if needBytes <= 0 {
		return plan, nil
	}
	total := ch.Len()
	var candidates []WaveRef
	for j := 1; j <= total; j++ {
		rec := ch.Job(j)
		if !rec.Completed {
			continue
		}
		byWave := make(map[int]*WaveRef)
		for _, m := range rec.Mappers {
			if m.Node < 0 {
				continue // already gone
			}
			w := m.Index / waveSlots
			ref := byWave[w]
			if ref == nil {
				ref = &WaveRef{Job: j, Wave: w}
				byWave[w] = ref
			}
			ref.Mappers = append(ref.Mappers, m.Index)
			ref.Bytes += m.OutputBytes
		}
		for _, ref := range byWave {
			candidates = append(candidates, *ref)
		}
	}
	// Cheapest expected cost per byte freed first: lower need-probability
	// (P(job j's outputs needed) ~ frontiers after j) wins; ties broken by
	// larger waves, then by (job, wave) for determinism.
	sort.Slice(candidates, func(a, b int) bool {
		pa := float64(total-candidates[a].Job) / float64(total)
		pb := float64(total-candidates[b].Job) / float64(total)
		if pa != pb {
			return pa < pb
		}
		if candidates[a].Bytes != candidates[b].Bytes {
			return candidates[a].Bytes > candidates[b].Bytes
		}
		if candidates[a].Job != candidates[b].Job {
			return candidates[a].Job < candidates[b].Job
		}
		return candidates[a].Wave < candidates[b].Wave
	})
	for i := range candidates {
		if plan.Freed >= needBytes {
			break
		}
		c := candidates[i]
		plan.Waves = append(plan.Waves, c)
		plan.Freed += c.Bytes
		plan.ExpectedExtraBytes += float64(total-c.Job) / float64(total) * float64(c.Bytes)
	}
	if plan.Freed < needBytes {
		return plan, fmt.Errorf("core: only %d of %d bytes evictable", plan.Freed, needBytes)
	}
	return plan, nil
}

// ApplyEviction drops the planned waves from the lineage.
func ApplyEviction(ch *lineage.Chain, plan EvictionPlan) {
	for _, w := range plan.Waves {
		rec := ch.Job(w.Job)
		for _, mi := range w.Mappers {
			ch.SetMapperOutput(w.Job, mi, -1, rec.Mappers[mi].OutputBytes)
		}
	}
}
