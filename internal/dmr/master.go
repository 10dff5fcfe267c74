package dmr

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"rcmp/internal/core"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// MasterConfig configures the master.
type MasterConfig struct {
	ListenAddr     string // control address ("127.0.0.1:0" for tests)
	SlotsPerWorker int    // mapper slots and reducer slots per worker (paper's S)
	Timing         Timing

	// Chaos, when non-nil, routes the control listener and every
	// master-side dial through the fault injector under the endpoint name
	// "master".
	Chaos *wire.Chaos
	// Retry bounds transport-error re-attempts on master->worker RPCs
	// (task dispatch, loads, broadcasts). Its budget is distinct from death
	// detection: a retried task call rides out a flaky link, while the
	// heartbeat monitor alone declares workers dead. Zero disables.
	Retry wire.RetryPolicy
}

// DataLossError reports that a run was cancelled because worker deaths made
// unreplicated data unreachable. The driver reacts the way the paper's
// middleware does: cancel, plan a recomputation cascade, resubmit.
type DataLossError struct {
	Victims []int // all workers declared dead so far, ascending
}

func (e *DataLossError) Error() string {
	return fmt.Sprintf("dmr: job cancelled by node failure (dead workers %v)", e.Victims)
}

// workerInfo is the master's view of one worker.
type workerInfo struct {
	id     int
	addr   string
	lastHB time.Time
	alive  bool

	mapSlots    chan struct{}
	reduceSlots chan struct{}
}

// JobSpec describes one job run submitted by the driver.
type JobSpec struct {
	ID          int // chain job ID (1-based); recomputation runs reuse the original ID
	InFile      string
	OutFile     string
	NumReducers int
	OutputRepl  int
	// CarveRecords bounds records per output block for whole (unsplit)
	// reducers, so downstream map phases run one task per block.
	CarveRecords int

	// Recompute tags a recomputation run (the middleware's tagging of
	// Section IV-A). Nil for initial runs and full restarts, which are the
	// untagged case: every mapper of the input as laid out now, every
	// reducer whole.
	Recompute *RecomputeSpec

	// Speculation duplicates straggling mappers on another worker once a
	// mapper has run longer than core.SpeculationFactor times the mean of
	// the run's completed mappers (Section II; task-level, orthogonal to
	// recomputation). The first copy to finish wins; map outputs are
	// content-addressed and deterministic, so the duplicate is idempotent.
	Speculation bool
}

// RecomputeSpec names the tasks of one job run: the planner's step for a
// recomputed job, or — built by the master for an untagged run — every
// task of the job.
type RecomputeSpec struct {
	// Mappers lists mapper indices (into Table) to re-execute; the rest
	// are reused from their persisted outputs.
	Mappers []int
	// Reducers lists the reducer outputs to regenerate, with split counts.
	Reducers []core.ReducerRun
	// Table is the job's full mapper table from its lineage record, so the
	// master can locate reused outputs and re-run inputs.
	Table []lineage.MapperMeta
	// Scatter spreads each regenerated (unsplit) reducer's output blocks
	// over all live workers — the Section IV-B2 alternative to splitting.
	Scatter bool
}

// JobReport is what a completed run tells the driver, in lineage terms.
type JobReport struct {
	Mappers  []lineage.MapperMeta // the mappers this run executed
	Reducers []lineage.ReducerMeta
	// RemoteReads counts mapper inputs fetched from peers during this run.
	RemoteReads int
	// SpeculativeLaunched and SpeculativeWasted count duplicate mapper
	// launches and the subset that lost the race — the paper's
	// "speculative tasks that provide no benefit".
	SpeculativeLaunched int
	SpeculativeWasted   int
}

// Master is the control plane: worker registry, liveness, DFS metadata,
// and per-job task scheduling.
type Master struct {
	cfg    MasterConfig
	server *wire.Server
	peers  *wire.Pool

	mu      sync.Mutex
	workers map[int]*workerInfo
	failed  map[int]bool
	cancel  chan struct{} // non-nil while a run is active; closed on death
	stopMon chan struct{}
	monWG   sync.WaitGroup
	closed  bool

	// fsMu guards fs. Lock ordering: fsMu may be taken while holding mu
	// (the monitor marks loss), but never mu while holding fsMu.
	fsMu sync.Mutex
	fs   *dfs.FS
}

// StartMaster binds the control server and starts the liveness monitor.
// blockRecords is the DFS "block size" in records (the unit input files are
// carved into; the paper's 256 MB blocks).
func StartMaster(cfg MasterConfig, blockRecords int) (*Master, error) {
	cfg.Timing = cfg.Timing.withDefaults()
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.SlotsPerWorker <= 0 {
		cfg.SlotsPerWorker = 2
	}
	if blockRecords <= 0 {
		return nil, fmt.Errorf("dmr: blockRecords %d", blockRecords)
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("dmr: master listen: %w", err)
	}
	if cfg.Chaos != nil {
		ln = cfg.Chaos.WrapListener(ln, "master")
	}
	m := &Master{
		cfg: cfg,
		peers: wire.NewPoolOpts(cfg.Timing.DialTimeout, wire.PoolOptions{
			Chaos: cfg.Chaos, Self: "master", Retry: cfg.Retry,
		}),
		workers: make(map[int]*workerInfo),
		failed:  make(map[int]bool),
		fs:      dfs.New(int64(blockRecords)),
		stopMon: make(chan struct{}),
	}
	m.server = wire.NewServer(ln, m.handle)
	m.monWG.Add(1)
	go m.monitor()
	return m, nil
}

// Addr returns the master's control address.
func (m *Master) Addr() string { return m.server.Addr() }

// WithFS runs f with exclusive access to the DFS metadata. The driver's
// planner reads the namespace through this (the liveness monitor mutates it
// concurrently when it declares data lost).
func (m *Master) WithFS(f func(fs *dfs.FS) error) error {
	m.fsMu.Lock()
	defer m.fsMu.Unlock()
	return f(m.fs)
}

// BlockRecords returns the DFS block size in records.
func (m *Master) BlockRecords() int {
	return int(m.fs.BlockSize()) // immutable after construction
}

// FailedNodes returns a copy of the set of workers declared dead.
func (m *Master) FailedNodes() map[int]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]bool, len(m.failed))
	for k, v := range m.failed {
		out[k] = v
	}
	return out
}

// AliveWorkers returns the IDs of live registered workers, ascending.
func (m *Master) AliveWorkers() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aliveLocked()
}

func (m *Master) aliveLocked() []int {
	var out []int
	for id, w := range m.workers {
		if w.alive {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Close shuts the master down.
func (m *Master) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.stopMon)
	m.mu.Unlock()
	m.monWG.Wait()
	m.server.Close()
	m.peers.Close()
}

func (m *Master) handle(_ net.Addr, req any) (any, error) {
	switch r := req.(type) {
	case RegisterReq:
		return m.register(r)
	case HeartbeatReq:
		m.mu.Lock()
		if w := m.workers[r.Worker]; w != nil && w.alive {
			w.lastHB = time.Now()
		}
		m.mu.Unlock()
		return HeartbeatResp{}, nil
	default:
		return nil, fmt.Errorf("dmr: master: unknown request %T", req)
	}
}

func (m *Master) register(r RegisterReq) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Worker < 0 {
		return nil, fmt.Errorf("dmr: register: negative worker ID %d", r.Worker)
	}
	if old, ok := m.workers[r.Worker]; ok && old.alive {
		return nil, fmt.Errorf("dmr: worker %d already registered at %s", r.Worker, old.addr)
	}
	if m.failed[r.Worker] {
		// Re-registration of a failed ID would resurrect lost data without
		// regenerating it; the model (and HDFS practice) gives replacements
		// fresh IDs instead.
		return nil, fmt.Errorf("dmr: worker ID %d was declared dead; rejoin with a new ID", r.Worker)
	}
	m.workers[r.Worker] = &workerInfo{
		id: r.Worker, addr: r.Addr, lastHB: time.Now(), alive: true,
		mapSlots:    make(chan struct{}, m.cfg.SlotsPerWorker),
		reduceSlots: make(chan struct{}, m.cfg.SlotsPerWorker),
	}
	return RegisterResp{}, nil
}

// monitor declares workers dead when their heartbeats go stale, marks the
// DFS data lost, and cancels any active run — the detection timeout path.
func (m *Master) monitor() {
	defer m.monWG.Done()
	t := time.NewTicker(m.cfg.Timing.monitorTick())
	defer t.Stop()
	for {
		select {
		case <-m.stopMon:
			return
		case now := <-t.C:
			m.mu.Lock()
			for _, w := range m.workers {
				if w.alive && now.Sub(w.lastHB) > m.cfg.Timing.DetectionTimeout {
					m.markDeadLocked(w)
				}
			}
			m.mu.Unlock()
		}
	}
}

func (m *Master) markDeadLocked(w *workerInfo) {
	w.alive = false
	m.failed[w.id] = true
	m.fsMu.Lock()
	m.fs.FailNode(w.id)
	m.fsMu.Unlock()
	if m.cancel != nil {
		close(m.cancel)
		m.cancel = nil
	}
}

// victimsLocked returns the dead worker IDs, ascending.
func (m *Master) victimsLocked() []int {
	var out []int
	for id := range m.failed {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ---- task placement helpers ----

// aliveAddrs maps node IDs to data addresses, skipping dead workers.
func (m *Master) aliveAddrs(ids []int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, id := range ids {
		if w := m.workers[id]; w != nil && w.alive {
			out = append(out, w.addr)
		}
	}
	return out
}

func (m *Master) workerIfAlive(id int) *workerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w := m.workers[id]; w != nil && w.alive {
		return w
	}
	return nil
}

// acquire takes one slot, or reports cancellation.
func acquire(slots chan struct{}, cancel <-chan struct{}) error {
	select {
	case slots <- struct{}{}:
		return nil
	case <-cancel:
		return errCancelled
	}
}

var errCancelled = errors.New("dmr: run cancelled")

// ---- data-plane helpers (driver-facing) ----

// LoadFile loads a generated input file into the cluster: partition p's
// records are carved into blocks of the FS block size, placed writer-local
// on worker p%N with repl replicas, pushed to the holders, and recorded in
// the metadata. This is the replicated original input of Section V-A.
func (m *Master) LoadFile(name string, parts [][]workload.Record, repl int) error {
	alive := m.AliveWorkers()
	if len(alive) == 0 {
		return errors.New("dmr: no live workers to load input")
	}
	if repl > len(alive) {
		repl = len(alive)
	}
	if err := m.WithFS(func(fs *dfs.FS) error { _, err := fs.Create(name, len(parts)); return err }); err != nil {
		return err
	}
	blockRecords := m.BlockRecords()
	for p, rows := range parts {
		var blocks [][]workload.Record
		for len(rows) > blockRecords {
			blocks = append(blocks, rows[:blockRecords])
			rows = rows[blockRecords:]
		}
		blocks = append(blocks, rows)

		writer := alive[p%len(alive)]
		var set []int
		_ = m.WithFS(func(fs *dfs.FS) error { set = fs.PlanReplicas(writer, repl, alive); return nil })
		sizes := make([]int64, len(blocks))
		sets := make([][]int, len(blocks))
		for b, rowsB := range blocks {
			sizes[b] = int64(len(rowsB))
			sets[b] = set
			for _, node := range set {
				w := m.workerIfAlive(node)
				if w == nil {
					return fmt.Errorf("dmr: replica target %d died during load", node)
				}
				if _, err := m.peers.Call(w.addr, PutBlockReq{File: name, Part: p, Block: b, Records: rowsB}, m.cfg.Timing.CallTimeout); err != nil {
					return fmt.Errorf("dmr: load %s/p%d/b%d to worker %d: %w", name, p, b, node, err)
				}
			}
		}
		if err := m.WithFS(func(fs *dfs.FS) error {
			_, err := fs.SetPartitionBlocks(name, p, sizes, sets)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// broadcast sends req to every live worker, ignoring per-worker errors for
// dead-on-arrival peers (the monitor will declare them soon).
func (m *Master) broadcast(req any) {
	m.mu.Lock()
	var addrs []string
	for _, w := range m.workers {
		if w.alive {
			addrs = append(addrs, w.addr)
		}
	}
	m.mu.Unlock()
	for _, addr := range addrs {
		_, _ = m.peers.Call(addr, req, m.cfg.Timing.CallTimeout)
	}
}

// dropFileEverywhere removes a file's blocks cluster-wide plus its metadata.
func (m *Master) dropFileEverywhere(name string) {
	m.broadcast(DropFileReq{File: name})
	_ = m.WithFS(func(fs *dfs.FS) error { fs.Delete(name); return nil })
}

// SlotsPerWorker returns the configured mapper/reducer slots per worker.
func (m *Master) SlotsPerWorker() int { return m.cfg.SlotsPerWorker }

// PartitionDigest merges the per-block digests of one partition, reading
// each block from its first live replica.
func (m *Master) PartitionDigest(file string, part int) (workload.Digest, error) {
	var d workload.Digest
	var locs [][]int
	_ = m.WithFS(func(fs *dfs.FS) error { locs = fs.BlockLocations(file, part); return nil })
	if locs == nil {
		return d, fmt.Errorf("dmr: digest of missing partition %s/p%d", file, part)
	}
	for b, nodes := range locs {
		if len(nodes) == 0 {
			return d, fmt.Errorf("dmr: %s/p%d/b%d has no live replica", file, part, b)
		}
		var last error
		ok := false
		for _, node := range nodes {
			w := m.workerIfAlive(node)
			if w == nil {
				last = fmt.Errorf("dmr: replica %d dead", node)
				continue
			}
			resp, err := m.peers.Call(w.addr, DigestReq{File: file, Part: part, Block: b}, m.cfg.Timing.CallTimeout)
			var reply DigestResp
			if err == nil {
				reply, err = replyAs[DigestResp](resp, w.addr)
			}
			if err != nil {
				last = err
				continue
			}
			d.Merge(reply.Digest)
			ok = true
			break
		}
		if !ok {
			return d, fmt.Errorf("dmr: %s/p%d/b%d unreadable: %w", file, part, b, last)
		}
	}
	return d, nil
}
