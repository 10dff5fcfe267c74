package engine

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"rcmp/internal/middleware"
)

// pinnedEngineRuns holds one FNV-1a hash per block of pinSeedsPerBlock
// seeded random engine configurations. Each seed folds in its output
// digests, its recomputation counters, every lineage mapper (node, input
// block and sizes) and reducer (node set and size), and every job
// output's per-partition block layout — or, for a config the engine
// refuses, the error text.
var pinnedEngineRuns = [...]uint64{
	0x9b1eac9988f2e592, 0x8f9b5ed5a00a60a9, 0x32b95ded6d28908a, 0xc70d65bf2b3d1dce,
	0x802324d875cccb76, 0x84bd037d28ecf796, 0xc343e7dc06031d8c, 0xdcfdf1195c153afa,
}

const pinSeedsPerBlock = 32

// pinConfig draws one engine configuration from a seed: 3-8 nodes, 2-6
// jobs, splitting on or off with ratio 0-4, hybrid replication on or off,
// and 0-3 failures at random job boundaries on random nodes.
func pinConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Nodes:           3 + rng.Intn(6),
		Jobs:            2 + rng.Intn(5),
		RecordsPerBlock: 10 + rng.Intn(21),
		Seed:            seed,
		Split:           rng.Intn(2) == 1,
		SplitRatio:      rng.Intn(5),
		Parallelism:     1 + rng.Intn(3),
	}
	cfg.NumReducers = 2 + rng.Intn(cfg.Nodes)
	cfg.RecordsPerNode = 20 + rng.Intn(60)
	if rng.Intn(2) == 1 {
		cfg.HybridEveryK = 2 + rng.Intn(2)
	}
	for n := rng.Intn(4); n > 0; n-- {
		cfg.Failures = append(cfg.Failures, Failure{Before: 1 + rng.Intn(cfg.Jobs), Node: rng.Intn(cfg.Nodes)})
	}
	return cfg
}

func foldInts(h hash.Hash64, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

// foldEngineRun folds one configuration's observable outcome into h.
func foldEngineRun(h hash.Hash64, cfg Config) {
	e, err := New(cfg)
	if err == nil {
		err = e.Run()
	}
	if err != nil {
		fmt.Fprintf(h, "err:%v;", err)
		return
	}
	ds, err := e.OutputDigests()
	if err != nil {
		fmt.Fprintf(h, "err:%v;", err)
		return
	}
	for _, d := range ds {
		foldInts(h, int64(d.Count), int64(d.Sum))
		h.Write(d.XorMD5[:])
	}
	foldInts(h, int64(e.RecomputedMappers), int64(e.RecomputedReducers), int64(e.RecoveryEpisodes))
	for job := 1; job <= cfg.Jobs; job++ {
		rec := e.Chain().Job(job)
		foldInts(h, int64(job), int64(len(rec.Mappers)), int64(len(rec.Reducers)))
		for _, m := range rec.Mappers {
			foldInts(h, int64(m.Node), int64(m.InputPartition), int64(m.InputBlock), m.InputBytes, m.OutputBytes)
		}
		for _, r := range rec.Reducers {
			foldInts(h, int64(len(r.Nodes)), r.OutputBytes)
			for _, n := range r.Nodes {
				foldInts(h, int64(n))
			}
		}
		_, _, out := middleware.ChainNames(job)
		f := e.FS().File(out)
		if f == nil {
			fmt.Fprintf(h, "missing:%s;", out)
			continue
		}
		for _, p := range f.Partitions {
			foldInts(h, int64(p.Index), int64(len(p.Blocks)))
			for _, b := range p.Blocks {
				foldInts(h, b.Size, int64(len(b.Replicas)))
				for _, n := range b.Replicas {
					foldInts(h, int64(n))
				}
			}
		}
	}
}

// TestPinnedEngineRuns pins what the functional engine computes, recovers
// and records over 256 seeded random configurations, so a refactor of its
// execution path that moves a byte of output, a task placement, a block
// or a counter fails here before any caller notices.
func TestPinnedEngineRuns(t *testing.T) {
	for blk := range pinnedEngineRuns {
		h := fnv.New64a()
		for i := 0; i < pinSeedsPerBlock; i++ {
			seed := int64(blk*pinSeedsPerBlock + i)
			fmt.Fprintf(h, "seed:%d;", seed)
			foldEngineRun(h, pinConfig(seed))
		}
		if got := h.Sum64(); got != pinnedEngineRuns[blk] {
			t.Errorf("seeds %d-%d: hash %#x, want %#x", blk*pinSeedsPerBlock, (blk+1)*pinSeedsPerBlock-1, got, pinnedEngineRuns[blk])
		}
	}
}
