package flow

import (
	"math"
	"testing"

	"rcmp/internal/des"
)

// TestBankingRoundsEachProduct pins the banking arithmetic of both
// accounting modes: progress grows by rate × elapsed time, rounded to
// float64, then added. The Go specification lets a compiler fuse x*y + z
// into one multiply-add that rounds once, and arm64, ppc64le, riscv64 and
// loong64 builds do; the explicit float64 conversion on both banking lines
// forbids it, so those builds bank what amd64 builds do. Flow a runs alone
// on a 3 B/s disk until b joins at 0.1 s, then both run at 1.5 B/s until
// b's 5 bytes are done. At that banking a's progress must be the rounded
// sum, 5.3, where a fused multiply-add gives the next float64 up.
func TestBankingRoundsEachProduct(t *testing.T) {
	capacity, joined := 3.0, 0.1
	for _, mode := range accountingModes {
		sim := des.New()
		net := NewNetwork(sim)
		mode.enable(net)
		disk := []Use{{&Resource{Name: "disk", Capacity: capacity}, 1}}
		var a *Flow
		var got float64
		var bDone des.Time
		sim.At(0, func() { a = net.Start("a", 1e15, disk, 0, nil) })
		sim.At(des.Time(joined), func() {
			net.Start("b", 5, disk, 0, func(*Flow) { got, bDone = a.Done(), sim.Now() })
		})
		sim.RunUntil(100)

		alone := float64(capacity * joined)
		shared := float64(bDone) - joined
		want := alone + float64(capacity/2*shared)
		fused := math.FMA(capacity/2, shared, alone)
		if want == fused {
			t.Fatalf("%s: the case no longer tells rounding from fusing: both give %v", mode.name, want)
		}
		if got != want {
			t.Errorf("%s: a's progress when b completes is %v, want %v (a fused multiply-add gives %v)", mode.name, got, want, fused)
		}
	}
}
