package experiments

import (
	"math"
	"strings"
	"testing"
)

// engineToleranceBands is the stated per-spec relative-error bound between
// the DES and the analytic twin at quick scale — the analytic engine's
// accuracy contract: a closed form earns a band, not exact agreement.
//
// Bands were set empirically at roughly 1.5–2x the worst deviation
// observed across the registry at seeds {default, default+7}, so a model
// regression trips the suite while seed-to-seed noise does not. Tight
// bands (≤8%) cover the headline makespan/slowdown figures; the loose
// ones are distribution-tail metrics where a closed form is structurally
// weakest and the number itself is small or quantile-shaped:
//
//   - 11 (0.50), 12 (0.70): task-sample quantiles and small-denominator
//     speed-up ratios — synthetic samples reproduce wave structure, not
//     the within-wave spread;
//   - 13 (0.40), ablation-locality (0.35): sub-5-second phase deltas where
//     the absolute-slack floor dominates;
//   - trace-replay (1.10): per-day means of near-zero recovery seconds
//     (absolute agreement stays within ~5 s/day);
//   - multi-tenant (0.40): contention scaling is a resource-bound
//     envelope, not a schedule.
var engineToleranceBands = map[string]float64{
	"2":                    0.01,
	"8a":                   0.08,
	"8b":                   0.06,
	"8c":                   0.06,
	"9":                    0.08,
	"10":                   0.15,
	"11":                   0.50,
	"12":                   0.70,
	"13":                   0.40,
	"14":                   0.15,
	"hybrid":               0.02,
	"double-failure":       0.18,
	"trace-replay":         1.10,
	"weak-scaling":         0.10,
	"dag-recovery":         0.06,
	"multi-tenant":         0.40,
	"ablation-scatter":     0.06,
	"ablation-ratio":       0.15,
	"ablation-reuse":       0.03,
	"ablation-timeout":     0.06,
	"ablation-ioratio":     0.08,
	"ablation-reclaim":     0.01,
	"ablation-speculation": 0.05,
	"ablation-locality":    0.35,
	"cost":                 0.01,
}

// toleranceSkipKey filters Values that measure the simulator rather than
// the simulated system: the analytic engine has no event loop, so event
// and flow counts are definitionally zero, and speculative-execution
// counters are per-event bookkeeping the closed form does not emulate.
func toleranceSkipKey(k string) bool {
	for _, sub := range []string{"events", "flows", "speculative", "launched", "wasted"} {
		if strings.Contains(k, sub) {
			return true
		}
	}
	return false
}

// toleranceSlack is the absolute-error floor: metrics below ~5 simulated
// seconds (per-phase deltas, slowdown ratios near 1) are compared against
// this floor instead of their own magnitude, so a 0.5-second disagreement
// on a 1-second metric does not register as 50%.
const toleranceSlack = 5.0

// TestAnalyticEngineToleranceRegistryWide runs every registered experiment
// on both engines at quick scale, two seeds each, and requires every
// comparable Value to agree within the spec's stated band. The spec list
// and the band table must stay in lockstep, so registering a new
// experiment without stating its analytic accuracy fails the test.
func TestAnalyticEngineToleranceRegistryWide(t *testing.T) {
	seen := make(map[string]bool)
	for _, sp := range Registry() {
		band, ok := engineToleranceBands[sp.Key]
		if !ok {
			t.Errorf("%s: no analytic tolerance band stated — add it (and verify it) in engineToleranceBands", sp.Key)
			continue
		}
		seen[sp.Key] = true
		for _, seed := range []int64{sp.Seed, sp.Seed + 7} {
			des, err := sp.Exec(Config{Scale: ScaleQuick, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d des: %v", sp.Key, seed, err)
			}
			an, err := sp.Exec(Config{Scale: ScaleQuick, Seed: seed, Engine: EngineAnalytic})
			if err != nil {
				t.Fatalf("%s seed=%d analytic: %v", sp.Key, seed, err)
			}
			for k, dv := range des.Values {
				if toleranceSkipKey(k) {
					continue
				}
				av, ok := an.Values[k]
				if !ok {
					t.Errorf("%s seed=%d: analytic result is missing key %q", sp.Key, seed, k)
					continue
				}
				denom := math.Max(math.Abs(dv), toleranceSlack)
				if rel := math.Abs(av-dv) / denom; rel > band {
					t.Errorf("%s seed=%d key=%q: DES=%.3f analytic=%.3f rel=%.3f exceeds band %.2f",
						sp.Key, seed, k, dv, av, rel, band)
				}
			}
		}
	}
	for key := range engineToleranceBands {
		if !seen[key] {
			t.Errorf("band table names unknown spec %q", key)
		}
	}
}
