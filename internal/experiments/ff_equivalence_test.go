package experiments

import (
	"math"
	"testing"
)

// TestGoldenResultsEquivalentUnderFastForward runs the full registry a
// second time with the mapreduce fast-forward engine forced on (through a
// Worker whose every chain and graph fast-forwards) and asserts
// result-level equivalence with the exact-mode run. Fast-forward absorbs
// failure-free task timers into a micro-scheduler instead of the DES queue,
// so the event *stream* differs — but the engine replays the exact total
// order (time, then scheduling sequence), so every simulated timestamp,
// recompute count, failure count, and even the semantic event count must
// come out identical. The 1e-6 tolerance exists only to absorb printing
// round-trips; in practice the values match bit-for-bit (docs/perf.md
// states this contract).
//
// Each spec runs under two seeds — its registered one and a perturbed one —
// so the sweep also covers failure schedules (multi-pulse, trace-sampled)
// landing at different offsets inside otherwise-skippable phases.
func TestGoldenResultsEquivalentUnderFastForward(t *testing.T) {
	t.Parallel()
	const relTol = 1e-6
	for _, sp := range Registry() {
		sp := sp
		t.Run(sp.Key, func(t *testing.T) {
			for _, seed := range []int64{sp.Seed, sp.Seed + 7} {
				cfg := Config{Scale: ScaleQuick, Seed: seed}
				exact := runOK(t, sp.Run, cfg)
				ff := runOK(t, sp.Run, cfg.WithWorker(&Worker{forceFF: true}))

				if exact.Name != ff.Name {
					t.Fatalf("seed %d: names differ: %q vs %q", seed, exact.Name, ff.Name)
				}
				if len(exact.Values) != len(ff.Values) {
					t.Fatalf("seed %d: value counts differ: %d vs %d", seed, len(exact.Values), len(ff.Values))
				}
				for k, ev := range exact.Values {
					fv, ok := ff.Values[k]
					if !ok {
						t.Errorf("seed %d: fast-forward run lost value %q", seed, k)
						continue
					}
					if math.IsNaN(ev) && math.IsNaN(fv) {
						continue
					}
					diff := math.Abs(ev - fv)
					scale := math.Max(math.Abs(ev), math.Abs(fv))
					if diff > relTol*math.Max(scale, 1) {
						t.Errorf("seed %d: value %q drifted under fast-forward: exact %v vs ff %v",
							seed, k, ev, fv)
					}
				}
			}
		})
	}
}
