package dmr

import (
	"fmt"
	"sort"
	"sync"

	"rcmp/internal/workload"
)

// blockKey names one stored DFS block.
type blockKey struct {
	file  string
	part  int
	block int
}

// mapKey names one persisted map output by the input block the mapper
// consumed. Content addressing (rather than a task index) keeps persisted
// outputs valid across recomputations that renumber a job's mapper table
// when an input partition's block layout changes.
type mapKey struct {
	job   int
	part  int
	block int
}

// store is a worker's local storage: DFS blocks (its DataNode role) and
// persisted map outputs (RCMP's cross-job persistence). Everything lives in
// memory; killing the worker makes it unreachable, which is all the failure
// model needs.
type store struct {
	mu      sync.RWMutex
	blocks  map[blockKey][]workload.Record
	mapOuts map[mapKey][][]workload.Record // per-reducer buckets
}

func newStore() *store {
	return &store{
		blocks:  make(map[blockKey][]workload.Record),
		mapOuts: make(map[mapKey][][]workload.Record),
	}
}

// PutBlock stores (a copy of the slice header of) a block. Records are
// treated as immutable by every reader.
func (s *store) PutBlock(file string, part, block int, rows []workload.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks[blockKey{file, part, block}] = rows
}

// GetBlock reads a stored block.
func (s *store) GetBlock(file string, part, block int) ([]workload.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows, ok := s.blocks[blockKey{file, part, block}]
	if !ok {
		return nil, fmt.Errorf("dmr: block %s/p%d/b%d not stored here", file, part, block)
	}
	return rows, nil
}

// DropPartition deletes every block of a partition.
func (s *store) DropPartition(file string, part int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.blocks {
		if k.file == file && k.part == part {
			delete(s.blocks, k)
		}
	}
}

// DropFile deletes every block of a file.
func (s *store) DropFile(file string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.blocks {
		if k.file == file {
			delete(s.blocks, k)
		}
	}
}

// PutMapOutput persists a mapper's bucketed output under its input block.
func (s *store) PutMapOutput(job, part, block int, buckets [][]workload.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mapOuts[mapKey{job, part, block}] = buckets
}

// MapOutputSlice returns the records of one persisted map output destined
// for (reducer, split). With splits == 1 the whole reducer bucket returns.
func (s *store) MapOutputSlice(job, part, block, reducer, split, splits int) ([]workload.Record, error) {
	s.mu.RLock()
	buckets, ok := s.mapOuts[mapKey{job, part, block}]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dmr: map output job %d over p%d/b%d not persisted here", job, part, block)
	}
	if reducer < 0 || reducer >= len(buckets) {
		return nil, fmt.Errorf("dmr: map output job %d over p%d/b%d has no reducer %d", job, part, block, reducer)
	}
	return workload.SplitSlice(buckets[reducer], split, splits), nil
}

// EvictMapOutput releases one persisted map output; evicting an absent one
// is a no-op (another worker may hold it).
func (s *store) EvictMapOutput(job, part, block int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.mapOuts, mapKey{job, part, block})
}

// DropMapOutputs releases the persisted map outputs of the given jobs.
func (s *store) DropMapOutputs(jobs []int) {
	drop := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		drop[j] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.mapOuts {
		if drop[k.job] {
			delete(s.mapOuts, k)
		}
	}
}

// BlockDigest fingerprints one stored block.
func (s *store) BlockDigest(file string, part, block int) (workload.Digest, error) {
	rows, err := s.GetBlock(file, part, block)
	if err != nil {
		return workload.Digest{}, err
	}
	return workload.DigestRecords(rows), nil
}

// Stats summarizes a store for observability and tests.
type Stats struct {
	Blocks       int
	BlockRecords int
	MapOutputs   int
	Files        []string
}

// Stats returns a snapshot of what the store holds.
func (s *store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Blocks: len(s.blocks), MapOutputs: len(s.mapOuts)}
	files := make(map[string]bool)
	for k, rows := range s.blocks {
		st.BlockRecords += len(rows)
		files[k.file] = true
	}
	for f := range files {
		st.Files = append(st.Files, f)
	}
	sort.Strings(st.Files)
	return st
}
