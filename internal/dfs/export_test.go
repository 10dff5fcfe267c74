// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package dfs

// Complete reports whether every partition has been written.
func (f *File) Complete() bool {
	for _, p := range f.Partitions {
		if !p.Written() {
			return false
		}
	}
	return true
}
