package mapreduce

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/metrics"
)

// placementPin is a hash over every map task sample of a result, in
// recorder order, plus their count and the number of (run, task) pairs
// that executed more than once within one recorder.
type placementPin struct {
	maps, reruns int
	hash         uint64
}

func placementOf(recs ...*metrics.Recorder) placementPin {
	h := fnv.New64a()
	var p placementPin
	var buf [32]byte
	type runTask struct{ run, task int }
	for _, rec := range recs {
		seen := map[runTask]bool{}
		for _, s := range rec.Tasks {
			if s.Kind != metrics.TaskMap {
				continue
			}
			binary.LittleEndian.PutUint64(buf[0:], uint64(s.RunIndex))
			binary.LittleEndian.PutUint64(buf[8:], uint64(s.Index))
			binary.LittleEndian.PutUint64(buf[16:], uint64(s.Node))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(float64(s.Start)))
			h.Write(buf[:])
			p.maps++
			k := runTask{s.RunIndex, s.Index}
			if seen[k] {
				p.reruns++
			}
			seen[k] = true
		}
	}
	p.hash = h.Sum64()
	return p
}

// TestPinnedMapPlacement pins which node every mapper ran on and when it
// started, across the shapes that exercise each branch of map assignment:
// multi-slot data-local placement, recomputation after a mid-chain loss,
// Hadoop re-queues of zombies and lost outputs with speculative
// duplicates, tenants contending for one slot table, the locality-blind
// shuffle, and the 1024-node weak-scaling chain that loses a node.
func TestPinnedMapPlacement(t *testing.T) {
	stic := func() ChainConfig {
		return ChainConfig{
			NumJobs: 4, NumReducers: 20,
			InputPerNode: 512 * cluster.MB, BlockSize: 128 * cluster.MB,
		}
	}
	rows := []struct {
		name string
		run  func() ([]*metrics.Recorder, error)
		want placementPin
	}{
		{"stic-repl3-slots22", func() ([]*metrics.Recorder, error) {
			cfg := stic()
			cfg.Mode, cfg.OutputRepl = ModeHadoop, 3
			return chainRecorder(cluster.STICConfig(2, 2), cfg)
		}, placementPin{160, 0, 0xd33f97cb31320571}},
		{"rcmp-split-midchain", func() ([]*metrics.Recorder, error) {
			cfg := stic()
			cfg.Split, cfg.SplitRatio = true, 8
			cfg.Failures = []Injection{{AtRun: 3, After: 15, Node: 3}}
			return chainRecorder(cluster.STICConfig(1, 1), cfg)
		}, placementPin{207, 0, 0x69a6667e7df34c21}},
		{"hadoop-midmap-speculation", func() ([]*metrics.Recorder, error) {
			ccfg, cfg := specRerunChain(true, 4, 3, 1)
			return chainRecorder(ccfg, cfg)
		}, placementPin{109, 1, 0x59129755b8d8bc84}},
		{"session-3-tenants", func() ([]*metrics.Recorder, error) {
			cfg := diamondGraph(tinyChain(4, 4, 128))
			cfg.Mode, cfg.OutputRepl, cfg.Seed = ModeHadoop, 2, 3
			cfg.Failures = []Injection{{AtRun: 3, After: 4, Node: 1}}
			res, err := NewContext(tinyCluster(6, 2, 2)).RunMultiTenant(cfg, 3)
			if err != nil {
				return nil, err
			}
			var recs []*metrics.Recorder
			for _, tr := range res.Tenants {
				recs = append(recs, tr.Recorder)
			}
			return recs, nil
		}, placementPin{182, 2, 0x33845ba6edca2be4}},
		{"disable-locality", func() ([]*metrics.Recorder, error) {
			cfg := tinyChain(3, 6, 256)
			cfg.DisableLocality = true
			return chainRecorder(tinyCluster(6, 2, 1), cfg)
		}, placementPin{72, 0, 0x9540f1ec2df18c2}},
		{"weak-scaling-1024-fail", func() ([]*metrics.Recorder, error) {
			cfg := ChainConfig{
				Mode:               ModeRCMP,
				NumJobs:            2,
				NumReducers:        1024,
				InputPerNode:       128 * cluster.MB,
				BlockSize:          64 * cluster.MB,
				ShuffleAggregation: ShuffleAggOn,
				Split:              true,
				Failures:           []Injection{{AtRun: 2, After: 1, Node: 3}},
			}
			return chainRecorder(cluster.DCOConfig(1024, 1, 1), cfg)
		}, placementPin{6144, 0, 0x27332d401f2c0f50}},
	}
	for _, row := range rows {
		recs, err := row.run()
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
			continue
		}
		if got := placementOf(recs...); got != row.want {
			t.Errorf("%s: got %#v, want %#v", row.name, got, row.want)
		}
	}
}

func chainRecorder(ccfg cluster.Config, cfg ChainConfig) ([]*metrics.Recorder, error) {
	res, err := RunChain(ccfg, cfg)
	if err != nil {
		return nil, err
	}
	return []*metrics.Recorder{res.Recorder}, nil
}
