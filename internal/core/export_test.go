// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package core

import "rcmp/internal/lineage"

// ReusedMapOutputs returns, for a given step, the mappers of that job whose
// persisted outputs are reused (i.e. not re-executed). These are the shuffle
// sources the recomputed reducers read without any new map work.
func ReusedMapOutputs(ch *lineage.Chain, step JobStep) []lineage.MapperMeta {
	rec := ch.Job(step.Job)
	rerun := make(map[int]bool, len(step.Mappers))
	for _, m := range step.Mappers {
		rerun[m] = true
	}
	var out []lineage.MapperMeta
	for _, m := range rec.Mappers {
		if !rerun[m.Index] {
			out = append(out, m)
		}
	}
	return out
}
