// Package lineage records what a multi-job computation has produced and
// where: the job dependency chain, each job's mapper and reducer tasks,
// and the cluster locations of their persisted outputs.
//
// This is the metadata RCMP's middleware and JobInit consult on failure
// (paper Section IV-A): which jobs exist, which mapper outputs are persisted
// on which nodes, and which reducer produced which output partition. The
// recomputation planner in internal/core walks these records backwards to
// build a minimal recovery plan.
package lineage

import "fmt"

// MapperMeta describes one mapper task of a job and its persisted output.
type MapperMeta struct {
	Index          int
	InFile         int   // index into the job's InputFiles (0 for single-input jobs)
	InputPartition int   // partition of that input file the mapper reads
	InputBlock     int   // block within that partition
	InputBytes     int64 // bytes read
	OutputBytes    int64 // bytes of persisted map output
	Node           int   // node holding the persisted output (-1 = none)
}

// ReducerMeta describes one reducer task of a job.
type ReducerMeta struct {
	Index       int
	OutputBytes int64
	// Nodes lists the nodes that produced the reducer's output partition:
	// one entry normally, several after a split recomputation.
	Nodes []int
}

// JobRecord is the lineage of one job in the chain.
type JobRecord struct {
	ID        int // 1-based position in the chain (topological position for DAGs)
	Name      string
	InputFile string
	// InputFiles lists every input file of a multi-input (DAG fan-in) job,
	// indexed by MapperMeta.InFile. Empty for single-input jobs, whose input
	// is InputFile; InputFile always equals the first input either way.
	InputFiles []string
	OutputFile string
	// Splittable reports whether the job's reducers may be split during
	// recomputation (false for order-sensitive logic such as top-k).
	Splittable bool
	Completed  bool

	Mappers  []MapperMeta
	Reducers []ReducerMeta
}

// NumReducers returns the reducer count of the job.
func (j *JobRecord) NumReducers() int { return len(j.Reducers) }

// InputFileAt returns the i-th input file of the job. Single-input records
// (no InputFiles set) hold their one input in InputFile.
func (j *JobRecord) InputFileAt(i int) string {
	if len(j.InputFiles) > 0 {
		return j.InputFiles[i]
	}
	return j.InputFile
}

// UnavailableMappers returns the indices of mappers whose outputs cannot be
// reused during a recomputation: lost with a failed node, or reclaimed /
// evicted (Node < 0), ascending. These must re-execute whenever the job's
// reducers recompute.
func (j *JobRecord) UnavailableMappers(failed map[int]bool) []int {
	var out []int
	for _, m := range j.Mappers {
		if m.Node < 0 || failed[m.Node] {
			out = append(out, m.Index)
		}
	}
	return out
}

// MappersReading returns the indices of mappers whose input is the given
// partition of the job's input file.
func (j *JobRecord) MappersReading(partition int) []int {
	var out []int
	for _, m := range j.Mappers {
		if m.InputPartition == partition {
			out = append(out, m.Index)
		}
	}
	return out
}

// Chain is the lineage of a multi-job computation: one record per
// completed job, in submission (topological) order. Which file each job
// reads is the job graph's business, not the chain's.
type Chain struct {
	jobs []*JobRecord
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// AppendRecord adds the next job record. Its ID must be len+1: records
// arrive in submission order. There is no file-linkage check here: every
// record comes from a core.Topology, whose graph middleware.NewGraph has
// already validated (single producer per file, no cycle), and a DAG job
// may read any earlier output, or several.
func (c *Chain) AppendRecord(j *JobRecord) error {
	if j.ID != len(c.jobs)+1 {
		return fmt.Errorf("lineage: job ID %d out of order (have %d jobs)", j.ID, len(c.jobs))
	}
	c.jobs = append(c.jobs, j)
	return nil
}

// InvalidateMapperOutput marks one mapper's persisted output as unusable
// (Node -1) while keeping its size metadata, e.g. when a split
// recomputation regenerated the partition it was computed from.
func (c *Chain) InvalidateMapperOutput(job, mapper int) {
	c.Job(job).Mappers[mapper].Node = -1
}

// Len returns the number of recorded jobs.
func (c *Chain) Len() int { return len(c.jobs) }

// Job returns the record for 1-based job id, or nil.
func (c *Chain) Job(id int) *JobRecord {
	if id < 1 || id > len(c.jobs) {
		return nil
	}
	return c.jobs[id-1]
}

// SetMapperOutput updates the persisted-output location and size for one
// mapper, e.g. after that mapper is recomputed on a new node.
func (c *Chain) SetMapperOutput(job, mapper, node int, bytes int64) {
	j := c.Job(job)
	j.Mappers[mapper].Node = node
	j.Mappers[mapper].OutputBytes = bytes
}

// SetReducerOutput updates a reducer's producing nodes and size, e.g. after
// a (possibly split) recomputation.
func (c *Chain) SetReducerOutput(job, reducer int, nodes []int, bytes int64) {
	j := c.Job(job)
	j.Reducers[reducer].Nodes = append([]int(nil), nodes...)
	j.Reducers[reducer].OutputBytes = bytes
}
