package main

import (
	"fmt"
	"time"

	"rcmp/internal/dmr"
	"rcmp/internal/engine"
	"rcmp/internal/workload"
)

// The real-runtime workloads: dmr_clean and dmr_kill. A dmr job waits for
// its slowest task, so one slow RPC shows in the latency of the whole chain.

const (
	dmrWorkers      = 4
	dmrVictim       = 1
	dmrKillAfter    = 4 // chain job after which the victim dies
	dmrBlockRecords = 250
)

// dmrShape is the chain both workloads and the engine reference run.
func dmrShape(seed int64, smoke bool) dmr.ChainConfig {
	c := dmr.ChainConfig{Jobs: 5, NumReducers: 8, RecordsPerPartition: 6000, Split: true, Seed: seed}
	if smoke {
		c.RecordsPerPartition = 300
	}
	return c
}

// dmrCluster is one master and its workers on loopback TCP.
type dmrCluster struct {
	m  *dmr.Master
	ws []*dmr.Worker
}

func startDMRCluster() (*dmrCluster, error) {
	m, err := dmr.StartMaster(dmr.MasterConfig{SlotsPerWorker: 1, Timing: dmr.TestTiming()}, dmrBlockRecords)
	if err != nil {
		return nil, err
	}
	c := &dmrCluster{m: m}
	for i := 0; i < dmrWorkers; i++ {
		w, err := dmr.StartWorker(dmr.WorkerConfig{ID: i, MasterAddr: m.Addr(), Timing: dmr.TestTiming()})
		if err != nil {
			c.close()
			return nil, err
		}
		c.ws = append(c.ws, w)
	}
	for len(m.AliveWorkers()) < dmrWorkers {
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

func (c *dmrCluster) close() {
	for _, w := range c.ws {
		w.Kill()
	}
	c.m.Close()
}

// dmrPass is one chain on a fresh cluster: prepare (set-up), run (the
// operation) and close.
type dmrPass struct {
	rec      *recorder
	root, op int
	c        *dmrCluster
	d        *dmr.Driver

	startCluster, loadInput, chain, detect time.Duration
	digests                                []workload.Digest
}

// prepareDMRPass builds a cluster and loads the input. With kill set, a
// worker dies after job dmrKillAfter and the chain resumes once the master
// has declared it dead.
func prepareDMRPass(rec *recorder, op int, cfg dmr.ChainConfig, kill bool) (*dmrPass, error) {
	p := &dmrPass{rec: rec, op: op, root: rec.begin("dmr pass", -1, op, 0)}
	t := time.Now()
	id := rec.begin("StartMaster+StartWorker", p.root, op, 0)
	c, err := startDMRCluster()
	rec.end(id)
	if err != nil {
		rec.end(p.root)
		return nil, err
	}
	p.c, p.startCluster = c, time.Since(t)

	if kill {
		cfg.AfterJob = func(job int) {
			if job != dmrKillAfter {
				return
			}
			t := time.Now()
			c.ws[dmrVictim].Kill()
			for !c.m.FailedNodes()[dmrVictim] {
				time.Sleep(time.Millisecond)
			}
			p.detect = time.Since(t)
		}
	}
	if p.d, err = dmr.NewDriver(c.m, cfg); err == nil {
		t = time.Now()
		id = rec.begin("LoadInput", p.root, op, 0)
		err = p.d.LoadInput()
		rec.end(id)
		p.loadInput = time.Since(t)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// run executes the chain and reads the output digests.
func (p *dmrPass) run() error {
	t := time.Now()
	id := p.rec.begin("Driver.RunChain", p.root, p.op, 0)
	err := p.d.RunChain()
	p.rec.end(id)
	for _, r := range p.d.RunLog {
		p.rec.add(fmt.Sprintf("run/%s/job%d", r.Kind, r.Job), id, p.op, 0, r.Start, r.End)
	}
	if err == nil {
		id = p.rec.begin("OutputDigests", p.root, p.op, 0)
		p.digests, err = p.d.OutputDigests()
		p.rec.end(id)
	}
	p.chain = time.Since(t)
	return err
}

func (p *dmrPass) close() {
	p.c.close()
	p.rec.end(p.root)
}

// engineDigests runs the same chain shape on the functional engine, the
// data-plane reference every dmr pass must reproduce.
func engineDigests(cfg dmr.ChainConfig) ([]workload.Digest, time.Duration, error) {
	t := time.Now()
	e, err := engine.New(engine.Config{
		Nodes: dmrWorkers, NumReducers: cfg.NumReducers, Jobs: cfg.Jobs,
		RecordsPerNode: cfg.RecordsPerPartition, RecordsPerBlock: dmrBlockRecords, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := e.Run(); err != nil {
		return nil, 0, err
	}
	d := time.Since(t)
	eds, err := e.OutputDigests()
	if err != nil {
		return nil, 0, err
	}
	out := make([]workload.Digest, len(eds))
	for i, ed := range eds {
		out[i] = workload.Digest{Count: ed.Count, XorMD5: ed.XorMD5, Sum: ed.Sum}
	}
	return out, d, nil
}

func digestsEqual(a, b []workload.Digest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// dmrChain runs one chain per operation, each on a fresh cluster. Set-up
// (cluster start + LoadInput) is timed per pass and reported as setup_s.
type dmrChain struct {
	kill bool
	cfg  dmr.ChainConfig
	want []workload.Digest // the engine's output digests
	pass int
}

func (w *dmrChain) setup(e *env) error {
	w.cfg = dmrShape(e.seed, e.smoke)
	var err error
	w.want, _, err = engineDigests(w.cfg)
	return err
}

func (w *dmrChain) run(e *env) {
	for done := 0; e.more(done, 1); done++ {
		var p *dmrPass
		var err error
		setup := e.outside(func() { p, err = prepareDMRPass(e.rec, w.pass, w.cfg, w.kill) })
		if err != nil {
			e.op(0, fmt.Sprintf("dmr: pass %d: set-up: %v", w.pass, err))
			return
		}
		e.mu.Lock()
		e.setups = append(e.setups, setup.Seconds())
		e.mu.Unlock()
		err = p.run()
		problem := ""
		switch {
		case err != nil:
			problem = fmt.Sprintf("dmr: pass %d: %v", w.pass, err)
		case !digestsEqual(p.digests, w.want):
			problem = fmt.Sprintf("dmr: pass %d: output digests differ from the engine's functional run", w.pass)
		case w.kill && p.d.RecoveryEpisodes == 0:
			problem = fmt.Sprintf("dmr: pass %d: the kill caused no recovery", w.pass)
		}
		e.op(p.chain, problem)
		e.outside(p.close)
		w.pass++
	}
}

func (w *dmrChain) check(*env) {}
func (w *dmrChain) close()     {}
