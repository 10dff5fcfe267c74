package experiments

import (
	"reflect"
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
)

// TestWorkerOwnsOneContext pins the owner's contract. Every case starts
// from a zero Worker and a successful chain, then runs a second one:
//   - on the same cluster.Config the second run reuses the very same
//     *mapreduce.Context, and a failing chain on it reports what it reports
//     on a fresh Context;
//   - on another cluster.Config the Context is replaced;
//   - a run that errors or panics leaves the slot empty, so a Context that
//     may hold mid-flight events or flows is never run on again.
func TestWorkerOwnsOneContext(t *testing.T) {
	t.Parallel()
	small, clean := WeakScalingSetup(Config{Scale: ScaleQuick}, 16)
	big, _ := WeakScalingSetup(Config{Scale: ScaleQuick}, 24)
	failing := clean
	failing.Split = true
	failing.Failures = []mapreduce.Injection{{AtRun: 2, After: 1, Node: 3}}
	invalid := clean
	invalid.NumJobs = -1

	for _, c := range []struct {
		name   string
		ccfg   cluster.Config
		cfg    mapreduce.ChainConfig
		panics bool   // the second run panics inside onContext instead
		slot   string // after the second run: "kept", "replaced" or "empty"
	}{
		{"same config reuses the context", small, clean, false, "kept"},
		{"a failing chain on a reused context", small, failing, false, "kept"},
		{"another config replaces the context", big, clean, false, "replaced"},
		{"an errored run empties the slot", small, invalid, false, "empty"},
		{"a panicking run empties the slot", small, failing, true, "empty"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w Worker
			if _, err := w.runChain(EngineDES, small, clean); err != nil {
				t.Fatal(err)
			}
			first := w.ctx
			if first == nil {
				t.Fatal("a successful run left the slot empty")
			}

			res, err := func() (res *mapreduce.Result, err error) {
				defer func() {
					if p := recover(); p != nil && c.slot != "empty" {
						t.Fatalf("unexpected panic: %v", p)
					}
				}()
				if c.panics {
					return onContext(&w, c.ccfg, func(ctx *mapreduce.Context) (*mapreduce.Result, error) {
						if _, err := ctx.RunChain(c.cfg); err != nil {
							return nil, err
						}
						panic("run")
					})
				}
				return w.runChain(EngineDES, c.ccfg, c.cfg)
			}()
			switch c.slot {
			case "kept":
				if w.ctx != first {
					t.Fatal("the same cluster.Config did not reuse the context")
				}
			case "replaced":
				if w.ctx == nil || w.ctx == first {
					t.Fatal("another cluster.Config did not replace the context")
				}
			case "empty":
				if w.ctx != nil {
					t.Fatal("an errored or panicking run left its context in the slot")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.cfg.Failures != nil && res.StartedRuns <= c.cfg.NumJobs {
				t.Fatalf("the injected failure caused no recovery: %d runs", res.StartedRuns)
			}
			fresh, err := mapreduce.NewContext(c.ccfg).RunChain(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, fresh) {
				t.Fatalf("reused context: total %v events %d flows %d runs %d; fresh: total %v events %d flows %d runs %d",
					res.Total, res.Events, res.Flows, res.StartedRuns, fresh.Total, fresh.Events, fresh.Flows, fresh.StartedRuns)
			}
		})
	}
}
