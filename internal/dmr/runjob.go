package dmr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rcmp/internal/core"
	"rcmp/internal/dfs"
	"rcmp/internal/lineage"
)

// RunJob executes one job run (initial, restart, or recomputation) to
// completion and returns its report. A worker death during the run cancels
// it and yields a *DataLossError, which the driver answers with a
// recomputation cascade. Only one run may be active at a time.
func (m *Master) RunJob(spec JobSpec) (*JobReport, error) {
	if spec.NumReducers <= 0 {
		return nil, fmt.Errorf("dmr: job %d: NumReducers=%d", spec.ID, spec.NumReducers)
	}
	if spec.OutputRepl <= 0 {
		spec.OutputRepl = 1
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("dmr: master closed")
	}
	if m.cancel != nil {
		m.mu.Unlock()
		return nil, errors.New("dmr: a job run is already active")
	}
	if len(m.aliveLocked()) == 0 {
		m.mu.Unlock()
		return nil, errors.New("dmr: no live workers")
	}
	cancel := make(chan struct{})
	m.cancel = cancel
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if m.cancel != nil { // not closed by a death
			m.cancel = nil
		}
		m.mu.Unlock()
	}()

	// The preamble is all that tells a full run from a recomputation step.
	// A full run (initial or restart) rewrites the output from scratch and
	// maps every block of the input as laid out now; a step drops only the
	// partitions it regenerates.
	rc := spec.Recompute
	var err error
	if rc == nil {
		rc, err = m.fullRun(spec)
	} else {
		for _, rr := range rc.Reducers {
			m.broadcast(DropPartitionReq{File: spec.OutFile, Part: rr.Reducer})
		}
	}
	var report *JobReport
	if err == nil {
		report, err = m.execute(spec, rc, cancel)
	}
	if err != nil {
		// Any error after a declared death is that death's data loss. A
		// failed task RPC or mapper placement may also be the first symptom
		// of a death the monitor has not declared yet: give detection a
		// chance so the driver sees a DataLossError rather than a transport
		// error. Every other error is the run's own and returns at once.
		var wait time.Duration
		var suspect deathSuspect
		if errors.As(err, &suspect) {
			wait = 2 * m.cfg.Timing.DetectionTimeout
		}
		if errors.Is(err, errCancelled) || m.waitCancelled(cancel, wait) {
			m.mu.Lock()
			v := m.victimsLocked()
			m.mu.Unlock()
			return nil, &DataLossError{Victims: v}
		}
		return nil, err
	}
	select {
	case <-cancel: // death raced with the last task: treat the run as lost
		m.mu.Lock()
		v := m.victimsLocked()
		m.mu.Unlock()
		return nil, &DataLossError{Victims: v}
	default:
	}
	return report, nil
}

// waitCancelled reports whether the run is cancelled now or within d.
func (m *Master) waitCancelled(cancel <-chan struct{}, d time.Duration) bool {
	select {
	case <-cancel:
		return true
	default:
	}
	if d <= 0 {
		return false
	}
	select {
	case <-cancel:
		return true
	case <-time.After(d):
		return false
	}
}

// deathSuspect marks an error that a worker death can cause before the
// monitor declares it: a failed task RPC, or a mapper placement that found
// no live worker. Its message is the wrapped error's.
type deathSuspect struct{ error }

func (e deathSuspect) Unwrap() error { return e.error }

// runTasks runs fn(i) for every i in [0,n), at most limit at once (0 means
// all at once), and returns the lowest-indexed error, whichever task
// failed first in time. The map and reduce phases pass 0: worker slots
// bound them, not this.
func runTasks(n, limit int, fn func(i int) error) error {
	if limit <= 0 || limit > n {
		limit = n
	}
	errs := make([]error, n)
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := range n {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// placeMapper picks the worker for a mapper over input block holders:
// a holder with a free slot (data-local), else any worker with a free slot
// (remote read — the recomputation hot-spot path), else block on the first
// live holder. The returned worker's map slot is held; release when done.
func (m *Master) placeMapper(holders []int, rr int, cancel <-chan struct{}) (*workerInfo, error) {
	var localCandidates []*workerInfo
	for _, id := range holders {
		if w := m.workerIfAlive(id); w != nil {
			localCandidates = append(localCandidates, w)
		}
	}
	for _, w := range localCandidates {
		select {
		case w.mapSlots <- struct{}{}:
			return w, nil
		default:
		}
	}
	// No local slot free: spill to any live worker with capacity.
	m.mu.Lock()
	alive := m.aliveLocked()
	var spill []*workerInfo
	for i := range alive {
		spill = append(spill, m.workers[alive[(i+rr)%len(alive)]])
	}
	m.mu.Unlock()
	for _, w := range spill {
		select {
		case w.mapSlots <- struct{}{}:
			return w, nil
		default:
		}
	}
	// Everything busy: wait for the preferred local holder (or any worker
	// when the data is entirely remote).
	wait := spill
	if len(localCandidates) > 0 {
		wait = localCandidates
	}
	if len(wait) == 0 {
		return nil, deathSuspect{errors.New("dmr: no live workers to place mapper")}
	}
	if err := acquire(wait[0].mapSlots, cancel); err != nil {
		return nil, err
	}
	return wait[0], nil
}

// mapTaskResult is one completed mapper in lineage terms.
type mapTaskResult struct {
	meta       lineage.MapperMeta
	remoteRead bool
}

// mapPhaseStats aggregates completed-mapper durations for the speculation
// threshold, plus the speculation counters of one run's map phase.
type mapPhaseStats struct {
	mu           sync.Mutex
	n            int
	total        time.Duration
	specLaunched int
	specWasted   int
}

func (s *mapPhaseStats) record(d time.Duration) {
	s.mu.Lock()
	s.n++
	s.total += d
	s.mu.Unlock()
}

// threshold returns core.SpeculationFactor times the mean completed-mapper
// duration; not ok until enough mappers completed to trust the mean (the
// paper's speculation also waits for completed-task statistics).
func (s *mapPhaseStats) threshold() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < 3 {
		return 0, false
	}
	return time.Duration(core.SpeculationFactor * float64(s.total) / float64(s.n)), true
}

// tryPlaceDuplicate grabs a free map slot on any live worker other than
// exclude, without blocking. Returns nil when nothing is free — then the
// straggler just runs to completion, like Hadoop with full slots.
func (m *Master) tryPlaceDuplicate(exclude int) *workerInfo {
	m.mu.Lock()
	alive := m.aliveLocked()
	var cands []*workerInfo
	for _, id := range alive {
		if id != exclude {
			cands = append(cands, m.workers[id])
		}
	}
	m.mu.Unlock()
	for _, w := range cands {
		select {
		case w.mapSlots <- struct{}{}:
			return w
		default:
		}
	}
	return nil
}

// runMapPhase executes the given mapper descriptors and returns their
// completed metadata, optionally duplicating stragglers (speculation).
func (m *Master) runMapPhase(spec JobSpec, descs []lineage.MapperMeta, cancel <-chan struct{}) ([]mapTaskResult, *mapPhaseStats, error) {
	// Snapshot block locations up front: fs access stays single-threaded.
	holders := make([][]int, len(descs))
	if err := m.WithFS(func(fs *dfs.FS) error {
		for i, d := range descs {
			locs := fs.BlockLocations(spec.InFile, d.InputPartition)
			if d.InputBlock >= len(locs) || len(locs[d.InputBlock]) == 0 {
				return fmt.Errorf("dmr: job %d mapper %d: input %s/p%d/b%d has no live replica",
					spec.ID, d.Index, spec.InFile, d.InputPartition, d.InputBlock)
			}
			holders[i] = locs[d.InputBlock]
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	tick := m.cfg.Timing.progressTick()
	stats := &mapPhaseStats{}

	results := make([]mapTaskResult, len(descs))
	err := runTasks(len(descs), 0, func(i int) error {
		primary, err := m.placeMapper(holders[i], i, cancel)
		if err != nil {
			return err
		}
		type outcome struct {
			w    *workerInfo
			resp RunMapperResp
			err  error
		}
		ch := make(chan outcome, 2) // buffered: the losing attempt must not block
		launch := func(w *workerInfo) {
			go func() {
				defer func() { <-w.mapSlots }()
				resp, err := m.peers.Call(w.addr, RunMapperReq{
					Job:         spec.ID,
					Mapper:      descs[i].Index,
					InFile:      spec.InFile,
					Part:        descs[i].InputPartition,
					Block:       descs[i].InputBlock,
					NumReducers: spec.NumReducers,
					Holders:     m.aliveAddrs(holders[i]),
				}, m.cfg.Timing.TaskTimeout)
				if err != nil {
					ch <- outcome{w: w, err: err}
					return
				}
				reply, err := replyAs[RunMapperResp](resp, w.addr)
				ch <- outcome{w: w, resp: reply, err: err}
			}()
		}
		start := time.Now()
		launch(primary)
		outstanding, speculated := 1, false
		timer := time.NewTicker(tick)
		defer timer.Stop()
		for {
			select {
			case o := <-ch:
				if o.err != nil {
					outstanding--
					if outstanding == 0 {
						return deathSuspect{fmt.Errorf("dmr: job %d mapper %d on worker %d: %w",
							spec.ID, descs[i].Index, o.w.id, o.err)}
					}
					continue // the other attempt may still win
				}
				stats.record(time.Since(start))
				if speculated && o.w == primary {
					// The duplicate provided no benefit.
					stats.mu.Lock()
					stats.specWasted++
					stats.mu.Unlock()
				}
				meta := descs[i]
				meta.Node = o.w.id
				meta.OutputBytes = o.resp.OutputBytes
				results[i] = mapTaskResult{meta: meta, remoteRead: o.resp.RemoteRead}
				return nil
			case <-timer.C:
				if !spec.Speculation || speculated {
					continue
				}
				th, ok := stats.threshold()
				if !ok || time.Since(start) <= th {
					continue
				}
				if dup := m.tryPlaceDuplicate(primary.id); dup != nil {
					speculated = true
					outstanding++
					stats.mu.Lock()
					stats.specLaunched++
					stats.mu.Unlock()
					launch(dup)
				}
			case <-cancel:
				return errCancelled
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// reducePlacement is the precomputed placement of one reducer task (whole
// reducer, or one split).
type reducePlacement struct {
	reducer int
	split   int
	splits  int
	worker  *workerInfo
	set     []int // replica node set (worker first)

	// scatterNodes/scatterAddrs, when set, spread the task's output blocks
	// round-robin over these nodes instead of writing locally (Section
	// IV-B2). Only whole (unsplit) reducers scatter.
	scatterNodes []int
	scatterAddrs []string
}

// planReduce precomputes writers and replica sets sequentially (the FS
// placement cursor is not goroutine-safe).
func (m *Master) planReduce(runs []core.ReducerRun, repl int, scatter bool) ([]reducePlacement, error) {
	m.mu.Lock()
	alive := m.aliveLocked()
	m.mu.Unlock()
	if len(alive) == 0 {
		return nil, errors.New("dmr: no live workers for reduce phase")
	}
	if repl > len(alive) {
		repl = len(alive)
	}
	var scatterAddrs []string
	if scatter {
		scatterAddrs = m.aliveAddrs(alive)
		if len(scatterAddrs) != len(alive) {
			return nil, errors.New("dmr: scatter target died during planning")
		}
	}
	var out []reducePlacement
	for _, rr := range runs {
		splits := max(rr.Splits, 1)
		for s := 0; s < splits; s++ {
			id := alive[(rr.Reducer+s)%len(alive)]
			w := m.workerIfAlive(id)
			if w == nil {
				return nil, fmt.Errorf("dmr: reduce target %d died during planning", id)
			}
			p := reducePlacement{reducer: rr.Reducer, split: s, splits: splits, worker: w}
			if scatter && splits == 1 {
				p.scatterNodes = alive
				p.scatterAddrs = scatterAddrs
				p.set = []int{id} // unused for blocks; kept for invariants
			} else {
				_ = m.WithFS(func(fs *dfs.FS) error { p.set = fs.PlanReplicas(id, repl, alive); return nil })
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// reduceOutcome is one reduce task's written blocks.
type reduceOutcome struct {
	place  reducePlacement
	sizes  []int64
	nBytes int64
}

// runReducePhase executes the placed reduce tasks against the given shuffle
// sources and returns per-task outcomes.
func (m *Master) runReducePhase(spec JobSpec, places []reducePlacement, sources []MapSrc, cancel <-chan struct{}) ([]reduceOutcome, error) {
	outcomes := make([]reduceOutcome, len(places))
	err := runTasks(len(places), 0, func(i int) error {
		p := places[i]
		if err := acquire(p.worker.reduceSlots, cancel); err != nil {
			return err
		}
		defer func() { <-p.worker.reduceSlots }()
		carve := spec.CarveRecords
		if p.splits > 1 {
			carve = 0 // one block per split
		}
		var replicaAddrs []string
		if p.scatterAddrs == nil {
			for _, id := range p.set[1:] {
				if w := m.workerIfAlive(id); w != nil {
					replicaAddrs = append(replicaAddrs, w.addr)
				} else {
					return fmt.Errorf("dmr: replica target %d died", id)
				}
			}
		}
		resp, err := m.peers.Call(p.worker.addr, RunReducerReq{
			Job:          spec.ID,
			Reducer:      p.reducer,
			Split:        p.split,
			Splits:       p.splits,
			NumReducers:  spec.NumReducers,
			Sources:      sources,
			OutFile:      spec.OutFile,
			OutPart:      p.reducer,
			OutBlock:     p.split,
			CarveRecords: carve,
			ReplicaAddrs: replicaAddrs,
			ScatterAddrs: p.scatterAddrs,
		}, m.cfg.Timing.TaskTimeout)
		var r RunReducerResp
		if err == nil {
			r, err = replyAs[RunReducerResp](resp, p.worker.addr)
		}
		if err != nil {
			return deathSuspect{fmt.Errorf("dmr: job %d reducer %d.%d on worker %d: %w", spec.ID, p.reducer, p.split, p.worker.id, err)}
		}
		outcomes[i] = reduceOutcome{place: p, sizes: r.BlockRecords, nBytes: r.OutputBytes}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outcomes, nil
}

// commitReduceOutcomes writes DFS metadata and lineage-style reducer metas
// for a set of completed reduce tasks, grouping split outcomes by reducer.
func (m *Master) commitReduceOutcomes(spec JobSpec, outcomes []reduceOutcome) ([]lineage.ReducerMeta, error) {
	byReducer := make(map[int][]reduceOutcome)
	var order []int
	for _, o := range outcomes {
		if _, ok := byReducer[o.place.reducer]; !ok {
			order = append(order, o.place.reducer)
		}
		byReducer[o.place.reducer] = append(byReducer[o.place.reducer], o)
	}
	var metas []lineage.ReducerMeta
	for _, red := range order {
		group := byReducer[red]
		// Order blocks by split (each split wrote OutBlock == split; an
		// unsplit reducer wrote blocks 0..n-1 in one outcome).
		for i := 1; i < len(group); i++ {
			for j := i; j > 0 && group[j-1].place.split > group[j].place.split; j-- {
				group[j-1], group[j] = group[j], group[j-1]
			}
		}
		var sizes []int64
		var sets [][]int
		var nodes []int
		var bytes int64
		for _, o := range group {
			for i := range o.sizes {
				if o.place.scatterNodes != nil {
					// Mirror the worker's block rotation exactly.
					sets = append(sets, []int{o.place.scatterNodes[i%len(o.place.scatterNodes)]})
				} else {
					sets = append(sets, o.place.set)
				}
			}
			sizes = append(sizes, o.sizes...)
			nodes = append(nodes, o.place.worker.id)
			bytes += o.nBytes
		}
		if err := m.WithFS(func(fs *dfs.FS) error {
			_, err := fs.SetPartitionBlocks(spec.OutFile, red, sizes, sets)
			return err
		}); err != nil {
			return nil, err
		}
		metas = append(metas, lineage.ReducerMeta{Index: red, OutputBytes: bytes, Nodes: nodes})
	}
	return metas, nil
}

// fullRun recreates spec's output file and tags every task of the job:
// one mapper per block of the input as laid out now, every reducer whole.
func (m *Master) fullRun(spec JobSpec) (*RecomputeSpec, error) {
	m.dropFileEverywhere(spec.OutFile)
	rc := &RecomputeSpec{}
	err := m.WithFS(func(fs *dfs.FS) error {
		in := fs.File(spec.InFile)
		if in == nil {
			return fmt.Errorf("dmr: job %d input %q missing", spec.ID, spec.InFile)
		}
		if _, err := fs.Create(spec.OutFile, spec.NumReducers); err != nil {
			return err
		}
		for _, p := range in.Partitions {
			for b, blk := range p.Blocks {
				rc.Mappers = append(rc.Mappers, len(rc.Table))
				rc.Table = append(rc.Table, lineage.MapperMeta{
					Index: len(rc.Table), InputPartition: p.Index, InputBlock: b, InputBytes: blk.Size,
				})
			}
		}
		return nil
	})
	for r := 0; r < spec.NumReducers; r++ {
		rc.Reducers = append(rc.Reducers, core.ReducerRun{Reducer: r, Splits: 1})
	}
	return rc, err
}

// execute runs one job run, full or step alike: the tagged mappers, the
// shuffle over every mapper output of the job — re-executed ones at their
// new nodes, the rest reused from the nodes that persisted them — and the
// tagged reducers, possibly split, through reduce and commit.
func (m *Master) execute(spec JobSpec, rc *RecomputeSpec, cancel <-chan struct{}) (*JobReport, error) {
	descs := make([]lineage.MapperMeta, len(rc.Mappers))
	for i, idx := range rc.Mappers {
		if idx < 0 || idx >= len(rc.Table) {
			return nil, fmt.Errorf("dmr: job %d: recompute mapper %d outside table of %d", spec.ID, idx, len(rc.Table))
		}
		descs[i] = rc.Table[idx]
	}
	mapResults, mapStats, err := m.runMapPhase(spec, descs, cancel)
	if err != nil {
		return nil, err
	}

	report := &JobReport{SpeculativeLaunched: mapStats.specLaunched, SpeculativeWasted: mapStats.specWasted}
	nodes := make([]int, len(rc.Table))
	reran := make([]bool, len(rc.Table))
	for i, pm := range rc.Table {
		nodes[i] = pm.Node
	}
	for i, r := range mapResults {
		report.Mappers = append(report.Mappers, r.meta)
		if r.remoteRead {
			report.RemoteReads++
		}
		nodes[rc.Mappers[i]], reran[rc.Mappers[i]] = r.meta.Node, true
	}
	sources := make([]MapSrc, len(rc.Table))
	for i, pm := range rc.Table {
		w := m.workerIfAlive(nodes[i])
		switch {
		case w == nil && reran[i]:
			return nil, errCancelled // mapper's node died right after finishing
		case w == nil:
			return nil, fmt.Errorf("dmr: job %d: map output %d needed from dead worker %d (planner should have re-run it)",
				spec.ID, pm.Index, nodes[i])
		}
		sources[i] = MapSrc{Part: pm.InputPartition, Block: pm.InputBlock, Addr: w.addr}
	}

	places, err := m.planReduce(rc.Reducers, spec.OutputRepl, rc.Scatter)
	if err != nil {
		return nil, err
	}
	outcomes, err := m.runReducePhase(spec, places, sources, cancel)
	if err != nil {
		return nil, err
	}
	report.Reducers, err = m.commitReduceOutcomes(spec, outcomes)
	if err != nil {
		return nil, err
	}
	return report, nil
}
