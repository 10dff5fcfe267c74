// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package lineage

// LostMappers returns the indices of mappers whose persisted outputs are on
// failed nodes, ascending.
func (j *JobRecord) LostMappers(failed map[int]bool) []int {
	var out []int
	for _, m := range j.Mappers {
		if m.Node >= 0 && failed[m.Node] {
			out = append(out, m.Index)
		}
	}
	return out
}
