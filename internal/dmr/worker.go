package dmr

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// Timing bundles the liveness and transport delays of a deployment. Tests
// shrink these so a kill-detect-recover cycle takes milliseconds; the
// paper's clusters used a 30 s detection timeout.
type Timing struct {
	HeartbeatInterval time.Duration // worker -> master cadence
	DetectionTimeout  time.Duration // master declares a silent worker dead
	DialTimeout       time.Duration
	CallTimeout       time.Duration // per-RPC deadline for control calls
	TaskTimeout       time.Duration // per-task deadline (map/reduce RPCs)
}

// DefaultTiming returns production-ish defaults (detection 30 s, like the
// paper's configuration).
func DefaultTiming() Timing {
	return Timing{
		HeartbeatInterval: 3 * time.Second,
		DetectionTimeout:  30 * time.Second,
		DialTimeout:       5 * time.Second,
		CallTimeout:       30 * time.Second,
		TaskTimeout:       10 * time.Minute,
	}
}

// TestTiming returns millisecond-scale settings for tests and examples.
func TestTiming() Timing {
	return Timing{
		HeartbeatInterval: 10 * time.Millisecond,
		DetectionTimeout:  150 * time.Millisecond,
		DialTimeout:       time.Second,
		CallTimeout:       5 * time.Second,
		TaskTimeout:       time.Minute,
	}
}

func (t Timing) withDefaults() Timing {
	d := DefaultTiming()
	if t.HeartbeatInterval <= 0 {
		t.HeartbeatInterval = d.HeartbeatInterval
	}
	if t.DetectionTimeout <= 0 {
		t.DetectionTimeout = d.DetectionTimeout
	}
	if t.DialTimeout <= 0 {
		t.DialTimeout = d.DialTimeout
	}
	if t.CallTimeout <= 0 {
		t.CallTimeout = d.CallTimeout
	}
	if t.TaskTimeout <= 0 {
		t.TaskTimeout = d.TaskTimeout
	}
	return t
}

// Validate rejects timing combinations that break liveness detection. A
// detection timeout at or below the heartbeat interval declares every
// worker dead before its second heartbeat can arrive — an aggressively
// scaled chaos or cross-validation config must fail loudly here rather
// than kill the whole cluster at startup. Callers validate after
// withDefaults so partially specified configs are judged on their
// effective values.
func (t Timing) Validate() error {
	if t.DetectionTimeout <= t.HeartbeatInterval {
		return fmt.Errorf("dmr: DetectionTimeout (%v) must exceed HeartbeatInterval (%v)",
			t.DetectionTimeout, t.HeartbeatInterval)
	}
	return nil
}

// monitorTick is the master's liveness-scan period: the heartbeat cadence,
// tightened to a quarter of the detection window so a scan always lands
// inside it, floored at 1ms so millisecond-scale test timings cannot spin
// the monitor.
func (t Timing) monitorTick() time.Duration {
	tick := t.HeartbeatInterval
	if limit := t.DetectionTimeout / 4; tick > limit {
		tick = limit
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	return tick
}

// progressTick paces the job-runner's speculation progress checks at half
// the heartbeat cadence (fresher than liveness, since stragglers are judged
// on task runtimes), with the same 1ms spin floor.
func (t Timing) progressTick() time.Duration {
	tick := t.HeartbeatInterval / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	return tick
}

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	ID         int    // dense node ID, 0..N-1
	MasterAddr string // master's control address
	ListenAddr string // address to bind the data/task server ("127.0.0.1:0" for tests)
	Timing     Timing

	// TaskDelay makes every map/reduce task on this worker sleep first —
	// a straggler knob for tests and demos of speculative execution (a
	// slow disk or overloaded node in the paper's terms).
	TaskDelay time.Duration

	// Chaos, when non-nil, routes the worker's listener and every outbound
	// dial through the fault injector under the endpoint name "w<ID>".
	Chaos *wire.Chaos
	// Retry bounds transport-error re-attempts on the worker's peer pool.
	// The zero value keeps the historical single-shot behavior.
	Retry wire.RetryPolicy
}

// Worker is one compute-plus-storage node: it runs tasks, stores blocks and
// persisted map outputs, serves peer fetches, and heartbeats the master.
// Every outbound call, the master's included, goes through peers: the pool
// drops a client that a transport fault poisoned, so the next heartbeat
// re-dials instead of a healthy worker going silent to the master.
type Worker struct {
	cfg    WorkerConfig
	store  *store
	server *wire.Server
	peers  *wire.Pool

	mu        sync.Mutex
	killed    bool
	stopHB    chan struct{}
	hbStopped sync.WaitGroup

	remoteReads int // observability and tests
}

// StartWorker binds the worker's server, registers with the master, and
// starts heartbeating. The returned worker runs until Kill.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	cfg.Timing = cfg.Timing.withDefaults()
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("dmr: worker %d listen: %w", cfg.ID, err)
	}
	if cfg.Chaos != nil {
		ln = cfg.Chaos.WrapListener(ln, fmt.Sprintf("w%d", cfg.ID))
	}
	w := &Worker{
		cfg:    cfg,
		store:  newStore(),
		stopHB: make(chan struct{}),
	}
	w.peers = wire.NewPoolOpts(cfg.Timing.DialTimeout, wire.PoolOptions{
		Chaos: cfg.Chaos,
		Self:  fmt.Sprintf("w%d", cfg.ID),
		Retry: cfg.Retry,
	})
	w.server = wire.NewServer(ln, w.handle)

	// Register is single-shot, not a retried Pool.Call: a retry after a
	// lost reply would fail as "already registered".
	master, err := w.peers.Get(cfg.MasterAddr)
	if err == nil {
		_, err = master.Call(RegisterReq{Worker: cfg.ID, Addr: w.Addr()}, cfg.Timing.CallTimeout)
	}
	if err != nil {
		w.server.Close()
		w.peers.Close()
		return nil, fmt.Errorf("dmr: worker %d register: %w", cfg.ID, err)
	}
	w.hbStopped.Add(1)
	go w.heartbeatLoop()
	return w, nil
}

// Addr returns the worker's data/task address.
func (w *Worker) Addr() string { return w.server.Addr() }

// ID returns the worker's node ID.
func (w *Worker) ID() int { return w.cfg.ID }

func (w *Worker) heartbeatLoop() {
	defer w.hbStopped.Done()
	t := time.NewTicker(w.cfg.Timing.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopHB:
			return
		case <-t.C:
			// A failed heartbeat is not fatal: a master that stays
			// unreachable declares us dead on its own timeout, which is
			// the detection path under test.
			_, _ = w.peers.Call(w.cfg.MasterAddr, HeartbeatReq{Worker: w.cfg.ID}, w.cfg.Timing.CallTimeout)
		}
	}
}

// Kill simulates node death: heartbeats stop and the data/task server goes
// away, so stored blocks and persisted map outputs become unreachable. This
// is the TaskTracker+DataNode kill of Section V-A.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	close(w.stopHB)
	w.mu.Unlock()
	w.server.Close()
	// Closing the pool fails a heartbeat still in flight, retries and
	// all, so it cannot hold the death back.
	w.peers.Close()
	w.hbStopped.Wait()
}

// RemoteReads returns how many mapper inputs this worker fetched from peers
// (each one is a would-be hot-spot access during recomputation).
func (w *Worker) RemoteReads() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.remoteReads
}

// handle dispatches one request on the worker's server.
func (w *Worker) handle(_ net.Addr, req any) (any, error) {
	switch r := req.(type) {
	case PingReq:
		return PingResp{}, nil
	case PutBlockReq:
		w.store.PutBlock(r.File, r.Part, r.Block, r.Records)
		return PutBlockResp{}, nil
	case FetchBlockReq:
		rows, err := w.store.GetBlock(r.File, r.Part, r.Block)
		if err != nil {
			return nil, err
		}
		return FetchBlockResp{Records: rows}, nil
	case FetchMapOutReq:
		return w.serveShuffle(r)
	case DropPartitionReq:
		w.store.DropPartition(r.File, r.Part)
		return DropPartitionResp{}, nil
	case DropFileReq:
		w.store.DropFile(r.File)
		return DropFileResp{}, nil
	case DropMapOutputsReq:
		w.store.DropMapOutputs(r.Jobs)
		return DropMapOutputsResp{}, nil
	case EvictMapOutputsReq:
		for _, ref := range r.Refs {
			w.store.EvictMapOutput(ref.Job, ref.Part, ref.Block)
		}
		return EvictMapOutputsResp{}, nil
	case DigestReq:
		d, err := w.store.BlockDigest(r.File, r.Part, r.Block)
		if err != nil {
			return nil, err
		}
		return DigestResp{Digest: d}, nil
	case RunMapperReq:
		return w.runMapper(r)
	case RunReducerReq:
		return w.runReducer(r)
	default:
		return nil, fmt.Errorf("dmr: worker %d: unknown request %T", w.cfg.ID, req)
	}
}

// readInput returns the mapper's input block, fetching from a peer when it
// is not stored locally (a data-non-local task).
func (w *Worker) readInput(r RunMapperReq) ([]workload.Record, bool, error) {
	// One read decides local or remote: a DropPartitionReq can land at any
	// moment, and a block that is gone here may still be served by a holder.
	if rows, err := w.store.GetBlock(r.InFile, r.Part, r.Block); err == nil {
		return rows, false, nil
	}
	var lastErr error
	for _, addr := range r.Holders {
		if addr == w.Addr() {
			continue // the master thought we hold it but we don't; skip
		}
		resp, err := w.peers.Call(addr, FetchBlockReq{File: r.InFile, Part: r.Part, Block: r.Block}, w.cfg.Timing.CallTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		blk, err := replyAs[FetchBlockResp](resp, addr)
		if err != nil {
			lastErr = err
			continue
		}
		return blk.Records, true, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dmr: no holders listed")
	}
	return nil, false, fmt.Errorf("dmr: worker %d: input %s/p%d/b%d unreadable: %w",
		w.cfg.ID, r.InFile, r.Part, r.Block, lastErr)
}

// replyAs checks the concrete type of a peer's reply, so a mistyped one is
// an error naming the peer rather than a panic in a handler goroutine.
func replyAs[T any](resp any, peer string) (T, error) {
	v, ok := resp.(T)
	if !ok {
		return v, fmt.Errorf("dmr: peer %s replied %T, want %T", peer, resp, v)
	}
	return v, nil
}

// serveShuffle answers one batched shuffle fetch from the local store,
// concatenating the refs' slices into one batch sized up front.
func (w *Worker) serveShuffle(r FetchMapOutReq) (any, error) {
	parts := make([][]workload.Record, len(r.Refs))
	counts := make([]int, len(r.Refs))
	for i, ref := range r.Refs {
		rows, err := w.store.MapOutputSlice(r.Job, ref.Part, ref.Block, r.Reducer, r.Split, r.Splits)
		if err != nil {
			return nil, err
		}
		parts[i], counts[i] = rows, len(rows)
	}
	return FetchMapOutResp{Records: slices.Concat(parts...), Counts: counts}, nil
}

// splitShuffleReply checks a source worker's reply to a fetch of nrefs map
// outputs and cuts its batch back into one slice per ref.
func splitShuffleReply(resp any, peer string, nrefs int) ([][]workload.Record, error) {
	reply, err := replyAs[FetchMapOutResp](resp, peer)
	if err != nil {
		return nil, err
	}
	if len(reply.Counts) != nrefs {
		return nil, fmt.Errorf("dmr: peer %s answered %d map outputs, asked for %d", peer, len(reply.Counts), nrefs)
	}
	out := make([][]workload.Record, nrefs)
	rest := []workload.Record(reply.Records)
	for i, n := range reply.Counts {
		if n < 0 || n > len(rest) {
			return nil, fmt.Errorf("dmr: peer %s: shuffle reply counts %v do not fit its %d records", peer, reply.Counts, len(reply.Records))
		}
		out[i], rest = rest[:n:n], rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dmr: peer %s: shuffle reply counts %v leave %d of its %d records over", peer, reply.Counts, len(rest), len(reply.Records))
	}
	return out, nil
}

// shuffleParallelCopies bounds how many source workers one reducer fetches
// from at once (Hadoop's reduce.shuffle.parallelcopies), so a reducer on a
// large cluster does not hold a goroutine and a reply buffer per peer.
const shuffleParallelCopies = 8

// shuffle returns, per entry of r.Sources, the records that map output
// holds for this (reducer, split). Local sources are read straight from the
// store; remote ones are grouped by worker and fetched with one
// FetchMapOutReq each, concurrently. The result is indexed like Sources, so
// what the reducer sees does not depend on the order replies arrive in.
func (w *Worker) shuffle(r RunReducerReq) ([][]workload.Record, error) {
	type fetch struct {
		addr string
		idx  []int // positions in r.Sources, ascending
		req  FetchMapOutReq
	}
	out := make([][]workload.Record, len(r.Sources))
	var fetches []*fetch
	byAddr := make(map[string]*fetch)
	for i, src := range r.Sources {
		if src.Addr == w.Addr() {
			rows, err := w.store.MapOutputSlice(r.Job, src.Part, src.Block, r.Reducer, r.Split, r.Splits)
			if err != nil {
				return nil, err
			}
			out[i] = rows
			continue
		}
		f := byAddr[src.Addr]
		if f == nil {
			f = &fetch{addr: src.Addr, req: FetchMapOutReq{Job: r.Job, Reducer: r.Reducer, Split: r.Split, Splits: r.Splits}}
			byAddr[src.Addr] = f
			fetches = append(fetches, f)
		}
		f.idx = append(f.idx, i)
		f.req.Refs = append(f.req.Refs, BlockRef{Part: src.Part, Block: src.Block})
	}

	err := runTasks(len(fetches), shuffleParallelCopies, func(j int) error {
		f := fetches[j]
		resp, err := w.peers.Call(f.addr, f.req, w.cfg.Timing.CallTimeout)
		var parts [][]workload.Record
		if err == nil {
			parts, err = splitShuffleReply(resp, f.addr, len(f.idx))
		}
		if err != nil {
			return fmt.Errorf("shuffle from %s: %w", f.addr, err)
		}
		for k, i := range f.idx {
			out[i] = parts[k] // each fetch fills its own elements: no lock needed
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runMapper executes one mapper task.
func (w *Worker) runMapper(r RunMapperReq) (any, error) {
	if w.cfg.TaskDelay > 0 {
		time.Sleep(w.cfg.TaskDelay)
	}
	rows, remote, err := w.readInput(r)
	if err != nil {
		return nil, err
	}
	buckets, outBytes, err := workload.MapBlock(rows, r.NumReducers)
	if err != nil {
		return nil, fmt.Errorf("dmr: worker %d mapper %d/%d: %w", w.cfg.ID, r.Job, r.Mapper, err)
	}
	w.store.PutMapOutput(r.Job, r.Part, r.Block, buckets)

	counts := make([]int64, r.NumReducers)
	for i, b := range buckets {
		counts[i] = int64(len(b))
	}
	w.mu.Lock()
	if remote {
		w.remoteReads++
	}
	w.mu.Unlock()
	return RunMapperResp{PerReducerRecords: counts, OutputBytes: outBytes, RemoteRead: remote}, nil
}

// runReducer executes one reducer task (whole or one split).
func (w *Worker) runReducer(r RunReducerReq) (any, error) {
	if w.cfg.TaskDelay > 0 {
		time.Sleep(w.cfg.TaskDelay)
	}
	// Shuffle: pull this (reducer, split)'s records from every map source
	// and group them in Sources order, whichever reply landed first.
	shuffled, err := w.shuffle(r)
	if err != nil {
		return nil, fmt.Errorf("dmr: worker %d reducer %d.%d: %w", w.cfg.ID, r.Reducer, r.Split, err)
	}
	out, outBytes, err := workload.ReduceGroups(shuffled)
	if err != nil {
		return nil, fmt.Errorf("dmr: worker %d reducer %d.%d: %w", w.cfg.ID, r.Reducer, r.Split, err)
	}

	// Carve into output blocks: one per split, or CarveRecords-sized chunks
	// for a whole reducer so the next job's map phase has multiple tasks.
	var blocks [][]workload.Record
	if r.Splits > 1 || r.CarveRecords <= 0 {
		blocks = [][]workload.Record{out}
	} else {
		for len(out) > r.CarveRecords {
			blocks = append(blocks, out[:r.CarveRecords])
			out = out[r.CarveRecords:]
		}
		blocks = append(blocks, out) // possibly empty: empty partitions still get a block
	}

	// Store blocks: locally plus replica pushes, or scattered over the
	// provided node rotation (Section IV-B2 hot-spot mitigation).
	sizes := make([]int64, len(blocks))
	for i, b := range blocks {
		idx := r.OutBlock + i
		sizes[i] = int64(len(b))
		if len(r.ScatterAddrs) > 0 {
			target := r.ScatterAddrs[i%len(r.ScatterAddrs)]
			if target == w.Addr() {
				w.store.PutBlock(r.OutFile, r.OutPart, idx, b)
				continue
			}
			if _, err := w.peers.Call(target, PutBlockReq{File: r.OutFile, Part: r.OutPart, Block: idx, Records: b}, w.cfg.Timing.CallTimeout); err != nil {
				return nil, fmt.Errorf("dmr: worker %d reducer %d.%d: scatter to %s: %w",
					w.cfg.ID, r.Reducer, r.Split, target, err)
			}
			continue
		}
		w.store.PutBlock(r.OutFile, r.OutPart, idx, b)
		for _, addr := range r.ReplicaAddrs {
			if addr == w.Addr() {
				continue
			}
			if _, err := w.peers.Call(addr, PutBlockReq{File: r.OutFile, Part: r.OutPart, Block: idx, Records: b}, w.cfg.Timing.CallTimeout); err != nil {
				return nil, fmt.Errorf("dmr: worker %d reducer %d.%d: replicate to %s: %w",
					w.cfg.ID, r.Reducer, r.Split, addr, err)
			}
		}
	}
	return RunReducerResp{BlockRecords: sizes, OutputBytes: outBytes}, nil
}
