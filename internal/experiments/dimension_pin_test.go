package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rcmp/internal/failure"
)

// dimensionPinFile maps JobName(spec key, Config) to the spec's result
// digest under that Config, or "error: " and the error text when the
// figure rejects the point.
var dimensionPinFile = filepath.Join("testdata", "dimension_pin.json")

// TestPinnedDimensionOutputs pins every registered spec at quick scale
// under one non-default value of each dimension a figure reads — FailureAt,
// Schedule, Nodes, Speculation and Tenants — on both engines. The golden
// digests cover only the default Config; these are the paths by which an
// override reaches each run, so a refactor of how figures build their
// runs that drops or misroutes one shows here.
func TestPinnedDimensionOutputs(t *testing.T) {
	b, err := os.ReadFile(dimensionPinFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	got := dimensionOutputs(t)
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: not pinned; add %q", name, g)
		case g != w:
			t.Errorf("%s: output moved:\n  got  %s\n  want %s", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not run", name)
		}
	}
}

// dimensionOutputs runs every spec under every pinned dimension value, on
// both engines, through Spec.Exec (so per-job Config errors are recorded
// the way the runner records them).
func dimensionOutputs(t *testing.T) map[string]string {
	sched, err := failure.ParseSchedule("2@15,3@20")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, eng := range []Engine{EngineDES, EngineAnalytic} {
		for _, dim := range []Config{{FailureAt: 3}, {Schedule: sched}, {Nodes: 7}, {Speculation: true}, {Tenants: 3}} {
			for _, sp := range Registry() {
				c := dim
				c.Scale, c.Seed, c.Engine = ScaleQuick, sp.Seed, eng
				name := JobName(sp.Key, c)
				res, err := sp.Exec(c)
				if err != nil {
					out[name] = "error: " + err.Error()
					continue
				}
				out[name] = resultDigest(res)
			}
		}
	}
	return out
}
