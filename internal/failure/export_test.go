// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package failure

// TotalNodes returns the number of node failures the schedule injects.
func (s Schedule) TotalNodes() int {
	total := 0
	for _, p := range s.Pulses {
		total += p.Nodes
	}
	return total
}
