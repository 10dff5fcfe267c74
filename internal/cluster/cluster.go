// Package cluster models a collocated data-analytics cluster: N nodes that
// each compute (mapper/reducer slots) and store data (one disk), joined by
// an edge NIC per node and a shared, possibly oversubscribed core switch.
//
// This is the substrate the RCMP paper runs on (STIC and DCO, Section V-A).
// The model captures the properties that drive the paper's results:
//
//   - disk throughput, including degradation under concurrent streams;
//   - NIC line rate per node, in each direction;
//   - core bandwidth = sum of NIC rates / oversubscription factor;
//   - per-node mapper and reducer slot counts;
//   - node failure removing both compute and storage (collocation).
package cluster

import (
	"fmt"
	"sort"

	"rcmp/internal/des"
	"rcmp/internal/flow"
)

// Config describes cluster hardware and scheduling capacity.
type Config struct {
	Name  string
	Nodes int

	MapSlots    int // concurrent mapper tasks per node
	ReduceSlots int // concurrent reducer tasks per node

	DiskBW           float64 // bytes/s sequential per-disk throughput
	DiskSeekPenalty  float64 // concurrency penalty factor (see flow.Resource)
	DiskPenaltyCap   float64 // bound on total seek degradation (see flow.Resource)
	NICBW            float64 // bytes/s per direction per node
	Oversubscription float64 // core capacity = Nodes*NICBW/Oversubscription

	TaskStartup des.Time // fixed scheduling+JVM cost per task launch
	MapCPU      float64  // bytes/s a mapper's UDF can process (0 = infinite)
	ReduceCPU   float64  // bytes/s a reducer's UDF can process (0 = infinite)

	// ReplicaWriteAmp is the disk-work amplification of replica copies
	// arriving over the network, relative to a local sequential write.
	// HDFS replica reception can interleave block data, checksums and
	// metadata and lose sequentiality (Shafer et al., ISPASS 2010 — the
	// paper's [22]); raise this above 1 to model that. Zero defaults to 1
	// (replicated bytes cost exactly their size at the receiving disk).
	ReplicaWriteAmp float64

	// ShuffleTransferDelay adds a fixed delay at the end of each shuffle
	// transfer. The paper uses 10s here to emulate a slow network
	// (SLOW SHUFFLE, Section V-D).
	ShuffleTransferDelay des.Time

	// ShuffleDiskFactor is the fraction of shuffle bytes that actually
	// touch the disks at each end. Freshly written map outputs are mostly
	// served from the page cache, and reducers merge fetched segments in
	// memory when they fit (both clusters in the paper have far more RAM
	// than per-node job data), so the shuffle is predominantly a network
	// operation. Zero defaults to 0.25.
	ShuffleDiskFactor float64

	// FailureDetectionTimeout is how long after a node dies the master
	// notices (paper: 30s, plus failures injected 15s into a job).
	FailureDetectionTimeout des.Time

	// NodeDiskScale makes selected nodes stragglers: node i's disk runs at
	// DiskBW * NodeDiskScale[i] (e.g. 0.3 for a degraded drive). Nodes not
	// in the map run at full speed. Used by the speculative-execution
	// experiments (paper Section III-A).
	NodeDiskScale map[int]float64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster %q: Nodes=%d, need >0", c.Name, c.Nodes)
	case c.MapSlots <= 0 || c.ReduceSlots <= 0:
		return fmt.Errorf("cluster %q: slots %d-%d, need >0", c.Name, c.MapSlots, c.ReduceSlots)
	case c.DiskBW <= 0 || c.NICBW <= 0:
		return fmt.Errorf("cluster %q: non-positive bandwidth", c.Name)
	case c.Oversubscription < 1:
		return fmt.Errorf("cluster %q: oversubscription %v < 1", c.Name, c.Oversubscription)
	}
	return nil
}

// Node is one compute+storage machine.
type Node struct {
	ID   int
	Disk *flow.Resource
	Up   *flow.Resource // NIC transmit
	Down *flow.Resource // NIC receive

	failed bool
}

// Failed reports whether the node has failed.
func (n *Node) Failed() bool { return n.failed }

// Cluster is a live topology bound to a simulator and flow network.
type Cluster struct {
	Cfg   Config
	Sim   *des.Simulator
	Net   *flow.Network
	Core  *flow.Resource
	nodes []*Node

	// alive is the incrementally maintained set of non-failed node IDs:
	// Fail swap-removes in O(1) via alivePos (node ID -> slot in alive, -1
	// when dead) and marks the slice unsorted; Alive() restores ascending
	// order lazily, once per failure pulse, so a pulse killing k nodes
	// costs O(k + a log a) instead of the old O(k*n) rebuild scans.
	alive       []int
	alivePos    []int
	aliveSorted bool

	// Pooled shuffle-side resources for the aggregated shuffle tier (see
	// mapreduce's per-destination aggregated trunks): the source NICs,
	// destination NICs and disks of all alive nodes collapsed into one
	// resource each, capacities maintained from the alive count on Fail
	// and Reset. Unused (zero members) unless the aggregated shuffle is
	// active, so they cost nothing at the exact tier.
	ShufSrc  *flow.Resource
	ShufDst  *flow.Resource
	ShufDisk *flow.Resource

	// usesBuf backs the *UsesScratch path helpers: one shared buffer,
	// valid until the next *UsesScratch call. See ReadUsesScratch.
	usesBuf [5]flow.Use
}

// New builds a cluster. It panics on an invalid config: configs are
// programmer-supplied constants, not runtime input.
func New(sim *des.Simulator, cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{
		Cfg: cfg,
		Sim: sim,
		Net: flow.NewNetwork(sim),
		Core: &flow.Resource{
			Name:     cfg.Name + "/core",
			Capacity: float64(cfg.Nodes) * cfg.NICBW / cfg.Oversubscription,
		},
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &Node{
			ID:   i,
			Disk: &flow.Resource{Name: fmt.Sprintf("%s/n%d/disk", cfg.Name, i), Capacity: c.diskBW(i), SeekPenalty: cfg.DiskSeekPenalty, PenaltyCap: cfg.DiskPenaltyCap},
			Up:   &flow.Resource{Name: fmt.Sprintf("%s/n%d/up", cfg.Name, i), Capacity: cfg.NICBW},
			Down: &flow.Resource{Name: fmt.Sprintf("%s/n%d/down", cfg.Name, i), Capacity: cfg.NICBW},
		})
	}
	c.ShufSrc = &flow.Resource{Name: cfg.Name + "/shuffle-src"}
	c.ShufDst = &flow.Resource{Name: cfg.Name + "/shuffle-dst"}
	c.ShufDisk = &flow.Resource{Name: cfg.Name + "/shuffle-disk"}
	c.initAlive()
	return c
}

func (c *Cluster) diskBW(i int) float64 {
	bw := c.Cfg.DiskBW
	if s, ok := c.Cfg.NodeDiskScale[i]; ok && s > 0 {
		bw *= s
	}
	return bw
}

// Reset returns the cluster to its just-built state — all nodes alive,
// every resource idle, the flow network empty — while keeping the node
// and resource structs, so a reused cluster behaves exactly like a fresh
// one without reconstructing the topology. The caller must reset the
// bound simulator first (the network's completion event lives there).
func (c *Cluster) Reset() {
	c.Net.Reset()
	for i, n := range c.nodes {
		n.failed = false
		resetResource(n.Disk, c.diskBW(i))
		resetResource(n.Up, c.Cfg.NICBW)
		resetResource(n.Down, c.Cfg.NICBW)
	}
	resetResource(c.Core, float64(c.Cfg.Nodes)*c.Cfg.NICBW/c.Cfg.Oversubscription)
	c.ShufSrc.ResetUsage()
	c.ShufDst.ResetUsage()
	c.ShufDisk.ResetUsage()
	c.initAlive()
}

// resetResource clears a resource's live bookkeeping. Generation stamps
// are left alone: the network's generation counter is monotonic across
// Reset, so stale stamps can never collide with a future pass.
func resetResource(r *flow.Resource, capacity float64) {
	r.Capacity = capacity
	r.ResetUsage()
}

// initAlive restores the all-alive state: identity alive list, identity
// position index, pool capacities at full cluster size.
func (c *Cluster) initAlive() {
	n := len(c.nodes)
	if cap(c.alive) < n {
		c.alive = make([]int, n)
		c.alivePos = make([]int, n)
	}
	c.alive = c.alive[:n]
	c.alivePos = c.alivePos[:n]
	for i := range c.alive {
		c.alive[i] = i
		c.alivePos[i] = i
	}
	c.aliveSorted = true
	c.sizeShufflePools()
}

// sizeShufflePools recomputes the aggregated shuffle pools from the alive
// count. A mid-run capacity change is picked up by the next water-fill
// that touches the pools — exactly when the next shuffle flow starts,
// aborts or completes, which any failure pulse triggers via the stalled
// fetches it aborts. The disk pool is sized at the seek-penalty-capped
// throughput: an aggregated shuffle by construction runs many concurrent
// streams per disk, so the capped effective rate — not the single-stream
// rate — is the correct asymptotic for the pooled capacity (the exact
// tier reaches the same floor through per-disk concurrency counts).
func (c *Cluster) sizeShufflePools() {
	a := float64(len(c.alive))
	c.ShufSrc.Capacity = a * c.Cfg.NICBW
	c.ShufDst.Capacity = a * c.Cfg.NICBW
	disk := c.Cfg.DiskBW
	if c.Cfg.DiskPenaltyCap > 0 {
		disk /= 1 + c.Cfg.DiskPenaltyCap
	}
	c.ShufDisk.Capacity = a * disk
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NumNodes returns the configured node count (alive or not).
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Alive returns the IDs of non-failed nodes, ascending. The slice is a
// cached view maintained incrementally on Fail: callers must treat it as
// read-only and must not retain it across a Fail or Reset. Fail leaves
// the slice unsorted (swap-remove); the ascending order every scheduler
// sweep depends on is restored here, once per failure pulse.
func (c *Cluster) Alive() []int {
	if !c.aliveSorted {
		sort.Ints(c.alive)
		for i, id := range c.alive {
			c.alivePos[id] = i
		}
		c.aliveSorted = true
	}
	return c.alive
}

// NumAlive returns the count of non-failed nodes.
func (c *Cluster) NumAlive() int { return len(c.alive) }

// Fail marks a node dead at the current simulated time. Storage and compute
// are both lost (collocated cluster). Fail is idempotent and O(1): the
// alive set is swap-removed in place (re-sorted lazily by Alive), so a
// pulse killing k nodes costs O(k) here, not O(k·n) rebuild scans.
func (c *Cluster) Fail(id int) {
	n := c.nodes[id]
	if n.failed {
		return
	}
	n.failed = true
	i := c.alivePos[id]
	last := len(c.alive) - 1
	if i != last {
		moved := c.alive[last]
		c.alive[i] = moved
		c.alivePos[moved] = i
		c.aliveSorted = false
	}
	c.alive = c.alive[:last]
	c.alivePos[id] = -1
	c.sizeShufflePools()
}

// ShuffleUses returns the path for a reducer on node dst fetching map
// output from node src. Disks are charged only the configured shuffle disk
// factor; the rest of the bytes move cache-to-memory across the network.
func (c *Cluster) ShuffleUses(src, dst int) []flow.Use {
	f := c.Cfg.ShuffleDiskFactor
	if f <= 0 {
		f = 0.25
	}
	if src == dst {
		return []flow.Use{{R: c.nodes[src].Disk, Weight: 2 * f}}
	}
	return []flow.Use{
		{R: c.nodes[src].Disk, Weight: f},
		{R: c.nodes[src].Up, Weight: 1},
		{R: c.Core, Weight: 1},
		{R: c.nodes[dst].Down, Weight: 1},
		{R: c.nodes[dst].Disk, Weight: f},
	}
}

// The *UsesScratch variants below return a slice backed by a single
// per-cluster scratch buffer: the result is valid only until the next
// *UsesScratch call. They exist for the simulation hot path, paired with
// flow.Network.StartC (which copies the uses before returning) — the
// allocating forms above stay for callers that retain the slice, e.g.
// trunks built once per topology.

// ReadUsesScratch returns, in the cluster's scratch buffer, the path for a
// task on node dst reading bytes that live on node src, without writing
// them back to dst's disk (e.g. a mapper streaming its input into the UDF).
func (c *Cluster) ReadUsesScratch(src, dst int) []flow.Use {
	if src == dst {
		c.usesBuf[0] = flow.Use{R: c.nodes[src].Disk, Weight: 1}
		return c.usesBuf[:1]
	}
	c.usesBuf[0] = flow.Use{R: c.nodes[src].Disk, Weight: 1}
	c.usesBuf[1] = flow.Use{R: c.nodes[src].Up, Weight: 1}
	c.usesBuf[2] = flow.Use{R: c.Core, Weight: 1}
	c.usesBuf[3] = flow.Use{R: c.nodes[dst].Down, Weight: 1}
	return c.usesBuf[:4]
}

// WriteUsesScratch returns, in the cluster's scratch buffer, the path for a
// task on node src writing bytes to node dst's disk (e.g. a replica of a
// reducer output). Remote writes charge the receiving disk the configured
// replica-write amplification.
func (c *Cluster) WriteUsesScratch(src, dst int) []flow.Use {
	if src == dst {
		c.usesBuf[0] = flow.Use{R: c.nodes[src].Disk, Weight: 1}
		return c.usesBuf[:1]
	}
	amp := c.Cfg.ReplicaWriteAmp
	if amp <= 0 {
		amp = 1.0
	}
	c.usesBuf[0] = flow.Use{R: c.nodes[src].Up, Weight: 1}
	c.usesBuf[1] = flow.Use{R: c.Core, Weight: 1}
	c.usesBuf[2] = flow.Use{R: c.nodes[dst].Down, Weight: 1}
	c.usesBuf[3] = flow.Use{R: c.nodes[dst].Disk, Weight: amp}
	return c.usesBuf[:4]
}

// AggShuffleUses is the aggregated shuffle path: ShuffleUses with both
// endpoints' NICs and disks collapsed into the cluster-wide pools (source
// and destination disks each contribute the shuffle disk factor, hence
// weight 2f on the disk pool). The core switch stays the real shared
// resource, so oversubscription — the contention that matters at scale —
// is preserved exactly; per-node hot-spots are averaged out, which is the
// aggregation's documented approximation. Every aggregated fetch shares
// this one path, so the flow layer's rate-class index arbitrates the
// whole shuffle as a single unit regardless of cluster size.
func (c *Cluster) AggShuffleUses() []flow.Use {
	f := c.Cfg.ShuffleDiskFactor
	if f <= 0 {
		f = 0.25
	}
	c.usesBuf[0] = flow.Use{R: c.ShufSrc, Weight: 1}
	c.usesBuf[1] = flow.Use{R: c.Core, Weight: 1}
	c.usesBuf[2] = flow.Use{R: c.ShufDst, Weight: 1}
	c.usesBuf[3] = flow.Use{R: c.ShufDisk, Weight: 2 * f}
	return c.usesBuf[:4]
}

const (
	// MB and GB are byte sizes used throughout configs and workloads.
	MB = 1 << 20
	GB = 1 << 30
)

// STICConfig models the paper's STIC cluster slice: 10 nodes, one SATA HDD
// each, 10GbE with a moderately oversubscribed core, 30s failure detection.
// Slot counts are per experiment (SLOTS 1-1 or 2-2).
func STICConfig(mapSlots, reduceSlots int) Config {
	return Config{
		Name:                    "STIC",
		Nodes:                   10,
		MapSlots:                mapSlots,
		ReduceSlots:             reduceSlots,
		DiskBW:                  100 * MB,
		DiskSeekPenalty:         0.35,
		DiskPenaltyCap:          1.2,
		NICBW:                   1250 * MB, // 10GbE
		Oversubscription:        4,
		TaskStartup:             1.0,
		MapCPU:                  400 * MB,
		ReduceCPU:               400 * MB,
		ReplicaWriteAmp:         1.0,
		FailureDetectionTimeout: 30,
	}
}

// DCOConfig models the paper's DCO cluster: up to 60 nodes, one dedicated
// 2TB SATA HDD each, 10GbE across 3 racks, JVM reuse enabled (lower task
// startup cost).
func DCOConfig(nodes, mapSlots, reduceSlots int) Config {
	return Config{
		Name:                    "DCO",
		Nodes:                   nodes,
		MapSlots:                mapSlots,
		ReduceSlots:             reduceSlots,
		DiskBW:                  120 * MB,
		DiskSeekPenalty:         0.35,
		DiskPenaltyCap:          1.2,
		NICBW:                   1250 * MB,
		Oversubscription:        4,
		TaskStartup:             0.3, // JVM reuse enabled (Section V-A)
		MapCPU:                  600 * MB,
		ReduceCPU:               600 * MB,
		ReplicaWriteAmp:         1.0,
		FailureDetectionTimeout: 30,
	}
}
