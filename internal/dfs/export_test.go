// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package dfs

// LostPartitions returns every currently-lost written partition across all
// files (useful when multiple failures accumulate).
func (fs *FS) LostPartitions() []LostPartition {
	var lost []LostPartition
	for _, name := range fs.Files() {
		f := fs.files[name]
		for _, p := range f.Partitions {
			if p.Written() && !fs.PartitionAvailable(name, p.Index) {
				lost = append(lost, LostPartition{File: name, Partition: p.Index})
			}
		}
	}
	return lost
}

// Complete reports whether every partition has been written.
func (f *File) Complete() bool {
	for _, p := range f.Partitions {
		if !p.Written() {
			return false
		}
	}
	return true
}
