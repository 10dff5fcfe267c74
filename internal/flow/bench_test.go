package flow

import (
	"testing"

	"rcmp/internal/des"
)

// benchNet builds a cluster-shaped resource set: one disk per node plus a
// shared core switch, mirroring what internal/cluster hands the network.
func benchNet(nodes int, class bool) (*des.Simulator, *Network, []*Resource, *Resource) {
	sim := des.New()
	net := NewNetwork(sim)
	if class {
		net.EnableClassAccounting()
	}
	disks := make([]*Resource, nodes)
	for i := range disks {
		disks[i] = &Resource{Name: "disk", Capacity: 100 * 1 << 20, SeekPenalty: 0.35, PenaltyCap: 1.2}
	}
	core := &Resource{Name: "core", Capacity: float64(nodes) * 1250 * (1 << 20) / 4}
	return sim, net, disks, core
}

// modes runs the benchmark body once in strict mode (bit-compatible global
// banking) and once under class accounting (per-component, per-trunk
// banking and heap-backed completion candidates — what the ≥128-node tier
// runs).
func modes(b *testing.B, body func(b *testing.B, class bool)) {
	for _, class := range []bool{false, true} {
		name := "strict"
		if class {
			name = "class"
		}
		b.Run(name, func(b *testing.B) { body(b, class) })
	}
}

// BenchmarkRebalanceLocal measures the map-phase shape: every flow is a
// node-local disk read, so the flow graph is N disjoint single-disk
// components. A start/abort pair on one disk should cost O(flows on that
// disk) for the water-filler, not O(all flows) — the headline case for the
// incremental rebalance. Class accounting additionally skips the global
// banking and completion rescan.
func BenchmarkRebalanceLocal(b *testing.B) {
	modes(b, func(b *testing.B, class bool) {
		const nodes = 64
		_, net, disks, _ := benchNet(nodes, class)
		var flows []*Flow
		for i := 0; i < nodes*4; i++ {
			flows = append(flows, net.Start("local", 1e15, []Use{{R: disks[i%nodes], Weight: 1}}, 0, nil))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := net.Start("probe", 1e15, []Use{{R: disks[i%nodes], Weight: 1}}, 0, nil)
			net.Abort(f)
		}
		b.StopTimer()
		for _, f := range flows {
			net.Abort(f)
		}
	})
}

// BenchmarkRebalanceSharedCore measures the worst case for component
// tracking: every flow crosses the shared core switch, so the whole network
// is one connected component and the incremental water-filler degenerates
// to the global one, with the connectivity sweep as pure overhead. This
// bounds the cost of the bookkeeping.
func BenchmarkRebalanceSharedCore(b *testing.B) {
	modes(b, func(b *testing.B, class bool) {
		const nodes = 64
		_, net, disks, core := benchNet(nodes, class)
		var flows []*Flow
		for i := 0; i < nodes*4; i++ {
			uses := []Use{{R: disks[i%nodes], Weight: 1}, {R: core, Weight: 1}, {R: disks[(i+7)%nodes], Weight: 1}}
			flows = append(flows, net.Start("remote", 1e15, uses, 0, nil))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := net.Start("probe", 1e15, []Use{{R: disks[i%nodes], Weight: 1}, {R: core, Weight: 1}}, 0, nil)
			net.Abort(f)
		}
		b.StopTimer()
		for _, f := range flows {
			net.Abort(f)
		}
	})
}

// BenchmarkRebalanceMixed measures a realistic mid-job mix: most flows are
// node-local disk traffic, a few cross the core. Incremental rebalancing
// confines local churn to small components while the cross-traffic
// component stays isolated.
func BenchmarkRebalanceMixed(b *testing.B) {
	modes(b, func(b *testing.B, class bool) {
		const nodes = 64
		_, net, disks, core := benchNet(nodes, class)
		var flows []*Flow
		for i := 0; i < nodes*4; i++ {
			var uses []Use
			if i%8 == 0 {
				uses = []Use{{R: disks[i%nodes], Weight: 1}, {R: core, Weight: 1}, {R: disks[(i+1)%nodes], Weight: 1}}
			} else {
				uses = []Use{{R: disks[i%nodes], Weight: 1}}
			}
			flows = append(flows, net.Start("mix", 1e15, uses, 0, nil))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := net.Start("probe", 1e15, []Use{{R: disks[(i*3+1)%nodes], Weight: 1}}, 0, nil)
			net.Abort(f)
		}
		b.StopTimer()
		for _, f := range flows {
			net.Abort(f)
		}
	})
}

// BenchmarkRebalanceCompletionChurn measures end-to-end completion cost:
// finite flows that actually finish, forcing the completion scan, the
// progress banking and the event (re)scheduling — the full per-event cost a
// simulation pays, not just the water-filler.
func BenchmarkRebalanceCompletionChurn(b *testing.B) {
	modes(b, func(b *testing.B, class bool) {
		const nodes = 64
		sim, net, disks, _ := benchNet(nodes, class)
		for i := 0; i < nodes*4; i++ {
			net.Start("base", 1e15, []Use{{R: disks[i%nodes], Weight: 1}}, 0, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Start("short", 1e6, []Use{{R: disks[i%nodes], Weight: 1}}, 0, nil)
			for sim.Step() {
				if net.Completed > uint64(i) {
					break
				}
			}
		}
	})
}

// BenchmarkRebalanceCoalesced measures a shuffle-shaped load arbitrated
// through per-node-pair trunks versus the same transfers as standalone
// flows: 16 nodes, 8 concurrent fetches per (src, dst) pair. The trunk form
// is what internal/mapreduce uses for reducer fetches.
func BenchmarkRebalanceCoalesced(b *testing.B) {
	for _, coalesced := range []bool{false, true} {
		name := "singleton"
		if coalesced {
			name = "trunked"
		}
		b.Run(name, func(b *testing.B) {
			const nodes = 16
			const perPair = 8
			_, net, disks, core := benchNet(nodes, false)
			uses := func(src, dst int) []Use {
				return []Use{
					{disks[src], 0.25}, {core, 1}, {disks[dst], 0.25},
				}
			}
			trunks := map[int]*Trunk{}
			start := func(src, dst int, size float64) *Flow {
				if !coalesced {
					return net.Start("shuf", size, uses(src, dst), 0, nil)
				}
				key := src*nodes + dst
				if trunks[key] == nil {
					trunks[key] = net.NewTrunk("pair", uses(src, dst))
				}
				return trunks[key].Start("shuf", size, 0, nil)
			}
			var flows []*Flow
			for i := 0; i < nodes*perPair; i++ {
				src := i % nodes
				flows = append(flows, start(src, (src+1+i/nodes)%nodes, 1e15))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := start(i%nodes, (i+3)%nodes, 1e15)
				net.Abort(f)
			}
			b.StopTimer()
			for _, f := range flows {
				net.Abort(f)
			}
		})
	}
}
