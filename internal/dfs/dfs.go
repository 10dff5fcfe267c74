// Package dfs is a block-based distributed file system substrate in the
// style of HDFS, at the metadata level: it tracks files, partitions,
// blocks, replica placement and data loss, which is all the RCMP paper's
// mechanisms need. (Byte contents live in the functional engine; the
// simulator only needs sizes and locations.)
//
// A File is divided into a fixed number of Partitions. For a MapReduce job
// output, partition i is the output of reducer i — the paper relies on this
// layout to trace lost key-value pairs back to the reducer that created
// them (Section IV). Each partition consists of fixed-size Blocks, and each
// block is replicated on one or more nodes. A partition regenerated by a
// split recomputation is written by several nodes at once, so placement
// accepts multiple primary writers and deals blocks across them.
package dfs

import (
	"fmt"
	"sort"
)

// BlockID names a block as (file, partition, index within partition).
type BlockID struct {
	File      string
	Partition int
	Index     int
}

func (b BlockID) String() string {
	return fmt.Sprintf("%s/p%d/b%d", b.File, b.Partition, b.Index)
}

// Block is a replicated chunk of a partition.
type Block struct {
	ID       BlockID
	Size     int64
	Replicas []int // node IDs holding a copy; Replicas[0] is the writer
}

func (b *Block) aliveReplicas(alive func(int) bool) []int {
	var out []int
	for _, n := range b.Replicas {
		if alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// hasAliveReplica is the allocation-free availability check: failure
// scans walk every block of every file, so they must not build replica
// slices just to test emptiness.
func (b *Block) hasAliveReplica(alive func(int) bool) bool {
	for _, n := range b.Replicas {
		if alive(n) {
			return true
		}
	}
	return false
}

// Partition is one logical piece of a file, produced by one reducer (or,
// after a split recomputation, by that reducer's splits collectively).
// A nil-Blocks partition has not been written yet.
type Partition struct {
	Index  int
	Blocks []*Block
}

// Written reports whether the partition holds data.
func (p *Partition) Written() bool { return len(p.Blocks) > 0 }

// Size returns the partition's total bytes.
func (p *Partition) Size() int64 {
	var s int64
	for _, b := range p.Blocks {
		s += b.Size
	}
	return s
}

// File is a named collection of a fixed number of partitions.
type File struct {
	Name       string
	Partitions []*Partition
}

// Size returns the file's total bytes.
func (f *File) Size() int64 {
	var s int64
	for _, p := range f.Partitions {
		s += p.Size()
	}
	return s
}

// FS is the namespace plus replica map.
//
// Partition and Block structs are recycled through per-FS free lists when
// a file is deleted or a partition overwritten: pointers into a deleted
// file or an overwritten partition are invalid from that moment. Every
// simulator consumer reads block metadata transiently (within one event),
// so the recycling is invisible to correct callers while making the
// write-delete churn of a job chain allocation-free.
type FS struct {
	blockSize int64
	files     map[string]*File
	// failed is indexed by node ID, grown on demand by FailNode;
	// numFailed counts its true entries so AnyFailed stays O(1).
	failed    []bool
	numFailed int
	// placeCursor provides deterministic round-robin placement of remote
	// replicas, per writer node, so replicas spread evenly.
	placeCursor map[int]int

	freeParts  []*Partition
	freeBlocks []*Block
}

func (fs *FS) allocPartition(idx int) *Partition {
	if k := len(fs.freeParts); k > 0 {
		p := fs.freeParts[k-1]
		fs.freeParts[k-1] = nil
		fs.freeParts = fs.freeParts[:k-1]
		p.Index = idx
		return p
	}
	return &Partition{Index: idx}
}

func (fs *FS) allocBlock(id BlockID, size int64, replicas []int) *Block {
	var b *Block
	if k := len(fs.freeBlocks); k > 0 {
		b = fs.freeBlocks[k-1]
		fs.freeBlocks[k-1] = nil
		fs.freeBlocks = fs.freeBlocks[:k-1]
	} else {
		b = &Block{}
	}
	b.ID = id
	b.Size = size
	b.Replicas = append(b.Replicas[:0], replicas...)
	return b
}

// recyclePartition returns a partition and its blocks to the free lists.
func (fs *FS) recyclePartition(p *Partition) {
	for i, b := range p.Blocks {
		fs.freeBlocks = append(fs.freeBlocks, b)
		p.Blocks[i] = nil
	}
	p.Blocks = p.Blocks[:0]
	fs.freeParts = append(fs.freeParts, p)
}

// New returns an empty file system with the given block size (paper: 256MB).
func New(blockSize int64) *FS {
	if blockSize <= 0 {
		panic(fmt.Sprintf("dfs: block size %d", blockSize))
	}
	return &FS{
		blockSize:   blockSize,
		files:       make(map[string]*File),
		placeCursor: make(map[int]int),
	}
}

// BlockSize returns the configured block size.
func (fs *FS) BlockSize() int64 { return fs.blockSize }

// Reset empties the file system — all files, failure marks and placement
// cursors gone — while keeping its allocated tables, so a reused FS
// behaves exactly like New(blockSize). Partitions and blocks go back onto
// the free lists in file-name order, not map order: a recycled block keeps
// its Replicas capacity, so which block the next write gets decides whether
// that write allocates, and map order would make a chain's allocations vary
// from one fresh FS to the next.
func (fs *FS) Reset(blockSize int64) {
	if blockSize <= 0 {
		panic(fmt.Sprintf("dfs: block size %d", blockSize))
	}
	fs.blockSize = blockSize
	for _, name := range fs.Files() {
		for _, p := range fs.files[name].Partitions {
			fs.recyclePartition(p)
		}
	}
	clear(fs.files)
	clear(fs.failed)
	fs.numFailed = 0
	clear(fs.placeCursor)
}

// Create makes a file with numPartitions unwritten partitions. Creating an
// existing name is an error.
func (fs *FS) Create(name string, numPartitions int) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q exists", name)
	}
	if numPartitions <= 0 {
		return nil, fmt.Errorf("dfs: file %q with %d partitions", name, numPartitions)
	}
	f := &File{Name: name}
	for i := 0; i < numPartitions; i++ {
		f.Partitions = append(f.Partitions, fs.allocPartition(i))
	}
	fs.files[name] = f
	return f, nil
}

// Delete removes a file, recycling its partitions and blocks (pointers
// into the file become invalid); deleting a missing file is a no-op.
func (fs *FS) Delete(name string) {
	f := fs.files[name]
	if f == nil {
		return
	}
	for _, p := range f.Partitions {
		fs.recyclePartition(p)
	}
	delete(fs.files, name)
}

// File returns a file by name, or nil.
func (fs *FS) File(name string) *File { return fs.files[name] }

// Files returns all file names, sorted.
func (fs *FS) Files() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NodeAlive reports whether node n has not failed. A node past the end of
// the failure table (or a negative ID) has never been failed.
func (fs *FS) NodeAlive(n int) bool { return uint(n) >= uint(len(fs.failed)) || !fs.failed[n] }

// PlanReplicas picks the replica node set for data written by writer with
// the given replication factor: the writer first (HDFS writer-local rule),
// then distinct nodes drawn round-robin from candidates. Each writer's
// cursor starts just past its own position, so when every node writes at
// once (the end of a reduce phase) the remote replicas spread across the
// cluster instead of piling onto one target — HDFS achieves the same by
// randomizing remote replica placement.
func (fs *FS) PlanReplicas(writer, repl int, candidates []int) []int {
	return fs.PlanReplicasInto(nil, writer, repl, candidates)
}

// PlanReplicasInto is PlanReplicas appending into buf (usually a reused
// scratch slice truncated to zero length), for hot paths that place a
// replica set per reducer completion.
func (fs *FS) PlanReplicasInto(buf []int, writer, repl int, candidates []int) []int {
	out := append(buf, writer)
	base := len(buf)
	cur, ok := fs.placeCursor[writer]
	if !ok {
		cur = writer + 1
	}
	for attempts := 0; len(out)-base < repl && attempts < 2*len(candidates); attempts++ {
		n := candidates[cur%len(candidates)]
		cur++
		dup := false
		for _, o := range out[base:] {
			if o == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	fs.placeCursor[writer] = cur
	return out
}

// SetPartition writes (or overwrites, after recomputation) partition idx of
// a file: size bytes dealt into blocks, with block b's replica set given by
// replicaSets[b % len(replicaSets)]. Use one replica set per writing task:
// a whole reducer passes one set; k splits pass k sets and the blocks
// spread round-robin across them, which is how split recomputation defuses
// the next job's map-phase hot-spot.
func (fs *FS) SetPartition(name string, idx int, size int64, replicaSets [][]int) (*Partition, error) {
	f := fs.files[name]
	if f == nil {
		return nil, fmt.Errorf("dfs: write to missing file %q", name)
	}
	if idx < 0 || idx >= len(f.Partitions) {
		return nil, fmt.Errorf("dfs: file %q has no partition %d", name, idx)
	}
	if len(replicaSets) == 0 {
		return nil, fmt.Errorf("dfs: no replica sets for %s/p%d", name, idx)
	}
	for _, rs := range replicaSets {
		if len(rs) == 0 {
			return nil, fmt.Errorf("dfs: empty replica set for %s/p%d", name, idx)
		}
	}
	old := f.Partitions[idx]
	p := fs.allocPartition(idx)
	nblocks := int((size + fs.blockSize - 1) / fs.blockSize)
	if nblocks == 0 {
		nblocks = 1 // empty partitions still get a metadata block
	}
	remaining := size
	for i := 0; i < nblocks; i++ {
		bs := fs.blockSize
		if remaining < bs {
			bs = remaining
		}
		remaining -= bs
		p.Blocks = append(p.Blocks, fs.allocBlock(
			BlockID{File: name, Partition: idx, Index: i}, bs, replicaSets[i%len(replicaSets)]))
	}
	f.Partitions[idx] = p
	fs.recyclePartition(old)
	return p, nil
}

// SetPartitionBlocks writes (or overwrites) partition idx with an explicit
// block list: block b has blockSizes[b] bytes and lives on replicaSets[b].
// The distributed runtime uses this form because there a block is the unit
// a single task wrote (a whole reducer's output, or one split's fragment),
// so sizes vary per block instead of being carved from a total.
func (fs *FS) SetPartitionBlocks(name string, idx int, blockSizes []int64, replicaSets [][]int) (*Partition, error) {
	f := fs.files[name]
	if f == nil {
		return nil, fmt.Errorf("dfs: write to missing file %q", name)
	}
	if idx < 0 || idx >= len(f.Partitions) {
		return nil, fmt.Errorf("dfs: file %q has no partition %d", name, idx)
	}
	if len(blockSizes) == 0 || len(blockSizes) != len(replicaSets) {
		return nil, fmt.Errorf("dfs: %s/p%d: %d block sizes vs %d replica sets",
			name, idx, len(blockSizes), len(replicaSets))
	}
	for b, size := range blockSizes {
		if size < 0 {
			return nil, fmt.Errorf("dfs: %s/p%d/b%d: negative size %d", name, idx, b, size)
		}
		if len(replicaSets[b]) == 0 {
			return nil, fmt.Errorf("dfs: empty replica set for %s/p%d/b%d", name, idx, b)
		}
	}
	old := f.Partitions[idx]
	p := fs.allocPartition(idx)
	for b, size := range blockSizes {
		p.Blocks = append(p.Blocks, fs.allocBlock(
			BlockID{File: name, Partition: idx, Index: b}, size, replicaSets[b]))
	}
	f.Partitions[idx] = p
	fs.recyclePartition(old)
	return p, nil
}

// LostPartition identifies a partition that lost all replicas of at least
// one block — i.e. the partition's data is irreversibly gone.
type LostPartition struct {
	File      string
	Partition int
}

// FailNode marks node n failed and returns the written partitions that
// became irreversibly lost as a result. Re-failing a node returns nil.
func (fs *FS) FailNode(n int) []LostPartition {
	if !fs.NodeAlive(n) {
		return nil
	}
	if n >= len(fs.failed) {
		fs.failed = append(fs.failed, make([]bool, n+1-len(fs.failed))...)
	}
	fs.failed[n] = true
	fs.numFailed++
	var lost []LostPartition
	for _, name := range fs.Files() {
		f := fs.files[name]
		for _, p := range f.Partitions {
			if !p.Written() {
				continue
			}
			for _, b := range p.Blocks {
				if !b.hasAliveReplica(fs.NodeAlive) {
					lost = append(lost, LostPartition{File: name, Partition: p.Index})
					break
				}
			}
		}
	}
	return lost
}

// PartitionAvailable reports whether the partition has been written and
// every block has at least one live replica.
func (fs *FS) PartitionAvailable(name string, idx int) bool {
	f := fs.files[name]
	if f == nil || idx < 0 || idx >= len(f.Partitions) {
		return false
	}
	p := f.Partitions[idx]
	if !p.Written() {
		return false
	}
	for _, b := range p.Blocks {
		if !b.hasAliveReplica(fs.NodeAlive) {
			return false
		}
	}
	return true
}

// FileBlockReplicas appends the live replica nodes of one block to buf and
// returns the extended slice; a missing file, partition or block yields buf
// unchanged. It is the allocation-free form of BlockLocations for hot
// scheduler scans: callers own buf and reuse it across calls, and pass the
// file handle they already resolved (File is stable for the lifetime of a
// job run), sparing the per-call name lookup.
func (fs *FS) FileBlockReplicas(f *File, idx, block int, buf []int) []int {
	if f == nil || idx < 0 || idx >= len(f.Partitions) {
		return buf
	}
	p := f.Partitions[idx]
	if block < 0 || block >= len(p.Blocks) {
		return buf
	}
	for _, n := range p.Blocks[block].Replicas {
		if fs.NodeAlive(n) {
			buf = append(buf, n)
		}
	}
	return buf
}

// AnyFailed reports whether any node has failed — the O(1) fast-path
// check that lets failure-free sweeps skip per-node liveness lookups.
func (fs *FS) AnyFailed() bool { return fs.numFailed > 0 }

// BlockLocations returns the live replica nodes for each block of a
// partition, in block order. Blocks with no live replica yield nil entries.
func (fs *FS) BlockLocations(name string, idx int) [][]int {
	f := fs.files[name]
	if f == nil || idx < 0 || idx >= len(f.Partitions) {
		return nil
	}
	var out [][]int
	for _, b := range f.Partitions[idx].Blocks {
		out = append(out, b.aliveReplicas(fs.NodeAlive))
	}
	return out
}
