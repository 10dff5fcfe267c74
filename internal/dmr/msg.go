// Package dmr is the distributed RCMP runtime: a real networked
// master/worker MapReduce system in the shape of the paper's Figure 3,
// built on TCP message passing (internal/wire).
//
// The roles match the paper:
//
//   - Workers (one per "compute node") store DFS blocks and persisted map
//     outputs, execute mapper and reducer tasks over real key-value
//     records, serve shuffle fetches to peers, and heartbeat the master.
//     Killing a worker loses both its computation and its stored data —
//     the collocated failure model of Section II.
//   - The Master tracks worker liveness with a heartbeat timeout (the
//     paper's 30 s detection timeout, configurable), owns the DFS
//     metadata, schedules tasks onto worker slots (waves emerge from slot
//     occupancy), and cancels the running job when a death causes
//     irreversible data loss.
//   - The Driver is the paper's middleware: it submits the chain one job
//     at a time, and on data loss builds the minimal cascade with the
//     shared planner (internal/core) and resubmits recomputation jobs
//     tagged with the reducer outputs to regenerate — including reducer
//     splitting and the Figure 5 split-invalidation rule.
//
// The shuffle follows the paper's model of a reducer pulling from nodes
// (Section II): a reducer groups its map sources by the worker holding
// them and sends each remote worker one FetchMapOutReq listing every map
// output it wants from there, all workers concurrently, while reading its
// own outputs straight from the local store. The replies are ingested in
// the order the master listed the sources, never in the order they arrive,
// so the reducer's output does not depend on network timing. Record
// payloads — blocks and shuffle batches alike — cross the wire as one
// packed frame per message (RecordBatch in codec.go) rather than as one
// reflected gob struct per record. The frame travels as the envelope's
// bulk section (wire.Bulk), outside the gob stream: the sender writes it
// once, straight into the connection's send buffer, and the receiver
// reads it into one buffer it owns and keeps each received Value as a
// cap-limited window of that buffer rather than a copy. A stored block
// or a reducer's output may therefore hold a received buffer alive; no
// reader ever writes to a record, so sharing it is safe.
//
// The runtime is chaos-hardened: every connection can carry a fault
// injector (wire.Chaos — deterministic latency, jitter, drops, one-way
// partitions, mid-stream resets), and RPCs retry transport errors with
// jittered exponential backoff (wire.RetryPolicy). A worker reaches the
// master through the same wire.Pool as every other peer, so a heartbeat is
// retried like any other call, and the pool drops a poisoned client so the
// next heartbeat re-dials instead of letting a transient transport fault
// masquerade as a death. Only faults that outlive the detection timeout
// become failures; the chaos regression tests pin that boundary from both
// sides.
//
// The same planner, partitioner, and UDFs drive the simulator and the
// functional engine, so a chain executed on this runtime with failures
// injected must produce byte-identical output digests to a failure-free
// run — which the integration tests assert over real sockets, and which
// internal/xval (docs/crossval.md) extends into a cross-engine gate:
// the recovery decisions this runtime makes must be identical to the
// simulator's under equivalent injections.
package dmr

import (
	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// ---- Master-bound messages ----

// RegisterReq announces a worker to the master.
type RegisterReq struct {
	Worker int    // node ID, dense 0..N-1
	Addr   string // worker's listen address for task/fetch traffic
}

// RegisterResp acknowledges registration.
type RegisterResp struct{}

// HeartbeatReq refreshes a worker's liveness lease.
type HeartbeatReq struct {
	Worker int
}

// HeartbeatResp acknowledges a heartbeat.
type HeartbeatResp struct{}

// ---- Worker-bound task messages ----

// RunMapperReq executes one mapper task: read block (Part, Block) of
// InFile — locally if stored, otherwise from Holders in order (the remote
// read that forms hot-spots during recomputation) — apply the map UDF, and
// persist the bucketed output under (Job, Mapper).
type RunMapperReq struct {
	Job         int
	Mapper      int
	InFile      string
	Part        int
	Block       int
	NumReducers int
	Holders     []string // live addresses holding the input block
}

// RunMapperResp reports a completed mapper.
type RunMapperResp struct {
	// PerReducerRecords counts the mapper's output records per reducer.
	PerReducerRecords []int64
	// OutputBytes is the total persisted map-output payload size.
	OutputBytes int64
	// RemoteRead reports whether the input block was fetched from a peer.
	RemoteRead bool
}

// MapSrc locates one mapper's persisted output for the shuffle, identified
// by the input block it consumed.
type MapSrc struct {
	Part  int
	Block int
	Addr  string
}

// RunReducerReq executes reducer Reducer (split Split of Splits) of a job:
// fetch the matching key range from every mapper output in Sources, group,
// apply the reduce UDF, store the output as block OutBlock of partition
// OutPart of OutFile, and push replicas to ReplicaAddrs.
type RunReducerReq struct {
	Job         int
	Reducer     int
	Split       int // 0-based split index; 0 when Splits == 1
	Splits      int // 1 = whole reducer
	NumReducers int
	Sources     []MapSrc

	OutFile  string
	OutPart  int
	OutBlock int // block index this task writes (its split number)
	// CarveRecords, when > 0 and Splits == 1, carves the output into blocks
	// of at most this many records starting at OutBlock, so the next job's
	// map phase gets one task per block (the paper's multi-wave map phases).
	CarveRecords int
	ReplicaAddrs []string

	// ScatterAddrs, when non-empty (Splits == 1 only), is the Section
	// IV-B2 alternative to splitting: output block i is stored on
	// ScatterAddrs[i mod len] instead of locally, spreading the regenerated
	// partition over many nodes without dividing the reduce work. The
	// master derives the matching replica sets with the same rotation.
	ScatterAddrs []string
}

// RunReducerResp reports a completed reducer (or split).
type RunReducerResp struct {
	// BlockRecords lists the record count of each block written, in block
	// order starting at OutBlock. One entry unless CarveRecords split it.
	BlockRecords []int64
	// OutputBytes is the total payload written (before replication).
	OutputBytes int64
}

// ---- Worker-to-worker data-plane messages ----

// PutBlockReq stores records as block (Part, Block) of File on the target
// worker. Used to load the computation input and to push output replicas.
type PutBlockReq struct {
	File    string
	Part    int
	Block   int
	Records RecordBatch
}

// PutBlockResp acknowledges a stored block.
type PutBlockResp struct{}

// FetchBlockReq reads a stored block.
type FetchBlockReq struct {
	File  string
	Part  int
	Block int
}

// FetchBlockResp carries the block payload.
type FetchBlockResp struct {
	Records RecordBatch
}

// BlockRef names one input block; a persisted map output is addressed by
// the block its mapper consumed.
type BlockRef struct {
	Part  int
	Block int
}

// FetchMapOutReq is the shuffle fetch: one request per (reducer, source
// worker), the way the paper's reducers pull from nodes (Section II). It
// reads, from every persisted map output of Job listed in Refs, the slice
// destined for one reducer — and, when Splits > 1, for one split of that
// reducer. The split filter runs at the source so a split shuffles only
// its share of the data, like the paper's split reducers. A missing map
// output fails the whole request with an error naming it.
type FetchMapOutReq struct {
	Job     int
	Refs    []BlockRef // map outputs wanted, by the input block consumed
	Reducer int
	Split   int
	Splits  int
}

// FetchMapOutResp carries the shuffle payload of one FetchMapOutReq: the
// slices of all its Refs concatenated in Refs order as one packed frame,
// and how many records each ref contributed. The requester rejects a reply
// whose Counts do not pair up with its Refs or do not sum to len(Records).
type FetchMapOutResp struct {
	Records RecordBatch
	Counts  []int
}

// DropPartitionReq deletes all locally stored blocks of a partition, ahead
// of its regeneration by a recomputation.
type DropPartitionReq struct {
	File string
	Part int
}

// DropPartitionResp acknowledges the drop.
type DropPartitionResp struct{}

// DropFileReq deletes all locally stored blocks of a file (restarting an
// interrupted job rewrites its output from scratch).
type DropFileReq struct {
	File string
}

// DropFileResp acknowledges the drop.
type DropFileResp struct{}

// DropMapOutputsReq releases persisted map outputs of the given jobs
// (checkpoint reclamation, Section IV-C).
type DropMapOutputsReq struct {
	Jobs []int
}

// DropMapOutputsResp acknowledges the release.
type DropMapOutputsResp struct{}

// MapOutRef names one persisted map output by the input block it consumed.
type MapOutRef struct {
	Job   int
	Part  int
	Block int
}

// EvictMapOutputsReq releases specific persisted map outputs (the
// wave-granularity storage-pressure eviction of Section IV-C).
type EvictMapOutputsReq struct {
	Refs []MapOutRef
}

// EvictMapOutputsResp acknowledges the eviction.
type EvictMapOutputsResp struct{}

// DigestReq asks for the order-independent digest of one stored partition
// block (verification plane; tests compare failure-free vs recovered runs).
type DigestReq struct {
	File  string
	Part  int
	Block int
}

// DigestResp carries the digest.
type DigestResp struct {
	Digest workload.Digest
}

// PingReq checks liveness of a worker's data plane.
type PingReq struct{}

// PingResp acknowledges a ping.
type PingResp struct{}

func init() {
	for _, m := range []any{
		RegisterReq{}, RegisterResp{},
		HeartbeatReq{}, HeartbeatResp{},
		RunMapperReq{}, RunMapperResp{},
		RunReducerReq{}, RunReducerResp{},
		PutBlockReq{}, PutBlockResp{},
		FetchBlockReq{}, FetchBlockResp{},
		FetchMapOutReq{}, FetchMapOutResp{},
		DropPartitionReq{}, DropPartitionResp{},
		DropFileReq{}, DropFileResp{},
		DropMapOutputsReq{}, DropMapOutputsResp{},
		EvictMapOutputsReq{}, EvictMapOutputsResp{},
		DigestReq{}, DigestResp{},
		PingReq{}, PingResp{},
	} {
		wire.Register(m)
	}
}
