package experiments

import (
	"math"
	"reflect"
	"testing"
)

// TestStrategyWith holds setup.with to the chain config: the cluster, name,
// engine and worker of a setup stay as built under every strategy, at both
// scales and on both cluster shapes.
func TestStrategyWith(t *testing.T) {
	for _, s := range []strategy{rcmpNoSplit, rcmpSplit, scatter, hadoopRepl2, hadoopRepl3} {
		t.Run(s.String(), func(t *testing.T) {
			for _, base := range []setup{
				sticSetup(Paper(), 1, 1), sticSetup(Quick(), 2, 2),
				dcoSetup(Paper(), 10), dcoSetup(Quick(), 6),
			} {
				got := base.with(s)
				if got.name != base.name || !reflect.DeepEqual(got.ccfg, base.ccfg) || got.engine != base.engine || got.w != base.w {
					t.Errorf("%s: with changed more than the chain config", base.name)
				}
			}
		})
	}
}

// TestSplitRatioFor pins Section V-A's ratios: 8 on STIC, N-1 on DCO, and
// N-1 on a STIC cluster too small to split eight ways.
func TestSplitRatioFor(t *testing.T) {
	nodes := func(n int) Config { c := Paper(); c.Nodes = n; return c }
	for _, c := range []struct {
		st   setup
		want int
	}{
		{sticSetup(Paper(), 1, 1), 8},
		{sticSetup(nodes(20), 1, 1), 8},
		{sticSetup(nodes(9), 1, 1), 8},
		{sticSetup(nodes(8), 1, 1), 7},
		{sticSetup(nodes(4), 1, 1), 3},
		{sticSetup(Quick(), 1, 1), 4},
		{dcoSetup(Paper(), 10), 9},
		{dcoSetup(Quick(), 6), 5},
		{dcoSetup(Paper(), 60), 59},
	} {
		if got := splitRatioFor(c.st); got != c.want {
			t.Errorf("splitRatioFor(%s on %d nodes) = %d, want %d", c.st.name, c.st.ccfg.Nodes, got, c.want)
		}
	}
}

// TestVsBest holds vsBest to metrics.Slowdown's zero baseline: a zero
// fastest total gives NaN throughout.
func TestVsBest(t *testing.T) {
	if s := vsBest([]float64{0, 5}); !math.IsNaN(s[0]) || !math.IsNaN(s[1]) {
		t.Errorf("a zero fastest total gives %v, want NaN", s)
	}
}
