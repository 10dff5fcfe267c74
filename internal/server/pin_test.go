package server

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rcmp/internal/experiments"
)

// pinConfig spells out every sweep dimension of c, schedule label included.
func pinConfig(c experiments.Config) string {
	return fmt.Sprintf("scale=%s seed=%d failure-at=%d schedule=%q label=%q nodes=%d tenants=%d speculation=%t engine=%s",
		c.Scale, c.Seed, c.FailureAt, c.Schedule.String(), c.Schedule.Label(), c.Nodes, c.Tenants, c.Speculation, c.Engine)
}

// TestPinnedSweepDecoding pins what /v1/sweep makes of a request: for every
// sweep dimension at its default and at a non-default value, the job names
// and the Configs decodeSweep lowers the body onto, or the 400 message.
// Job names and Configs are what the cache keys and the report rows are
// built from, so neither may move when the decoding code does.
func TestPinnedSweepDecoding(t *testing.T) {
	for _, c := range []struct {
		body string
		want []string // one "name | config" line per job, or "error: ..." alone
	}{
		{`{"specs":["cost"]}`, []string{
			"CostModels | scale=paper seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["cost"],"scale":"quick"}`, []string{
			"CostModels/quick | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["cost"],"scale":"SMOKE"}`, []string{
			"CostModels/quick | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["cost"],"scale":"paper","seeds":[0,7]}`, []string{
			"CostModels | scale=paper seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
			"CostModels/seed=7 | scale=paper seed=7 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["8b"],"scale":"quick","failure_ats":[0,2]}`, []string{
			"Fig8b/quick | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
			"Fig8b/quick/fail@2 | scale=quick seed=0 failure-at=2 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["12"],"scale":"quick","schedules":["stic:1","2@15,4@5x2",""]}`, []string{
			"Fig12/quick/sched=STIC/s1 | scale=quick seed=0 failure-at=0 schedule=\"3@15x1,6@15x1,7@15x3\" label=\"STIC/s1\" nodes=0 tenants=0 speculation=false engine=des",
			"Fig12/quick/sched=2@15x1,4@5x2 | scale=quick seed=0 failure-at=0 schedule=\"2@15x1,4@5x2\" label=\"2@15x1,4@5x2\" nodes=0 tenants=0 speculation=false engine=des",
			"Fig12/quick | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["8b"],"scale":"quick","nodes":[16]}`, []string{
			"Fig8b/quick/nodes=16 | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=16 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["weak-scaling"],"scale":"quick","engines":["analytic"],"nodes":[131072]}`, []string{
			"WeakScaling/quick/nodes=131072/engine=analytic | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=131072 tenants=0 speculation=false engine=analytic",
		}},
		{`{"specs":["multi-tenant","8b"],"scale":"quick","tenants":[3]}`, []string{
			"MultiTenant/quick/tenants=3 | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=3 speculation=false engine=des",
			"Fig8b/quick/tenants=3 | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=3 speculation=false engine=des",
		}},
		{`{"specs":["dag-recovery"],"scale":"quick","speculation":[false,true]}`, []string{
			"DAGRecovery/quick | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
			"DAGRecovery/quick/spec | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=true engine=des",
		}},
		{`{"specs":["8b"],"scale":"quick","engines":["des","DES"," Analytic "]}`, []string{
			"Fig8b/quick | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
			"Fig8b/quick | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
			"Fig8b/quick/engine=analytic | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=analytic",
		}},
		{`{"specs":["8b"],"scale":"quick","seeds":[4],"seed_set":2}`, []string{
			"Fig8b/quick/seed=4 | scale=quick seed=4 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
			"Fig8b/quick/seed=5 | scale=quick seed=5 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["8b"],"scale":"quick","failure_ats":[2],"schedules":["2@15"]}`, []string{
			"Fig8b/quick/fail@2/sched=2@15x1 | scale=quick seed=0 failure-at=2 schedule=\"2@15x1\" label=\"2@15x1\" nodes=0 tenants=0 speculation=false engine=des",
		}},
		{`{"specs":["fig8b"],"seeds":[1],"failure_ats":[3],"schedules":["sugar:2"],"nodes":[20],"tenants":[2],"speculation":[true],"engines":["analytic"]}`, []string{
			"Fig8b/seed=1/fail@3/sched=SUG@R/s2/nodes=20/tenants=2/spec/engine=analytic | scale=paper seed=1 failure-at=3 schedule=\"7@15x1\" label=\"SUG@R/s2\" nodes=20 tenants=2 speculation=true engine=analytic",
		}},
		{`{"specs":["cost"],"scale":"huge"}`, []string{
			"error: unknown scale \"huge\" (want \"paper\", \"quick\" or \"smoke\")",
		}},
		{`{"specs":["cost"],"schedules":["bogus@@"]}`, []string{
			"error: failure: bad schedule pulse \"bogus@@\"; want RUN[@SECONDS][xNODES]",
		}},
		{`{"specs":["cost"],"engines":["gpu"]}`, []string{
			"error: experiments: unknown engine \"gpu\" (want des or analytic)",
		}},
		{`{"specs":["cost"],"seed_set":1025}`, []string{
			"error: seed_set=1025 out of range [0, 1024]",
		}},
		{`{"specs":["cost"],"seed_set":-3}`, []string{
			"error: seed_set=-3 out of range [0, 1024]",
		}},
		{`{"specs":["nope"]}`, []string{
			"error: unknown spec \"nope\" (see /v1/experiments)",
		}},
		{`{"specs":[]}`, []string{
			"error: specs is required (registry keys or \"all\")",
		}},
		{`{"specs":["cost"],"nodes":["x"]}`, []string{
			"error: bad request body: json: cannot unmarshal string into Go struct field SweepRequest.nodes of type int",
		}},
		// Keys that differ only in case: the last one wins, as encoding/json
		// decides for the typed field.
		{collidingBody, []string{
			"Fig8b/quick/nodes=20 | scale=quick seed=0 failure-at=0 schedule=\"\" label=\"(empty)\" nodes=20 tenants=0 speculation=false engine=des",
		}},
	} {
		var got []string
		_, g, err := decodeSweep([]byte(c.body))
		if err != nil {
			got = []string{"error: " + err.Error()}
		} else {
			for _, j := range g.Jobs() {
				got = append(got, j.Name+" | "+pinConfig(j.Config))
			}
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s:\n got %#v\nwant %#v", c.body, got, c.want)
		}
	}
}

// collidingBody spells the nodes key twice in different cases.
const collidingBody = `{"specs":["8b"],"scale":"quick","Nodes":[16],"NODES":[20]}`

// TestCaseCollidingKeysDecodeOneGrid requires one body to decode to one
// grid every time, also when its keys collide without regard to case: the
// grid names the cache keys, so it may not depend on map order.
func TestCaseCollidingKeysDecodeOneGrid(t *testing.T) {
	counts := map[string]int{}
	for range 100 {
		_, g, err := decodeSweep([]byte(collidingBody))
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, j := range g.Jobs() {
			lines = append(lines, j.Name+" | "+pinConfig(j.Config))
		}
		counts[strings.Join(lines, "\n")]++
	}
	if len(counts) != 1 {
		t.Fatalf("one body decoded to %d grids: %v", len(counts), counts)
	}
}

// TestDimFieldsMatchTable ties every sweep dimension to exactly one
// SweepRequest field, the one decodeSweep reads: its json key is the
// dimension's JSON key, and it holds one string or a list of strings,
// integers or booleans.
func TestDimFieldsMatchTable(t *testing.T) {
	rt := reflect.TypeFor[SweepRequest]()
	for i, d := range experiments.Dims() {
		var fields []int
		for f := range rt.NumField() {
			if key, _, _ := strings.Cut(rt.Field(f).Tag.Get("json"), ","); key == d.JSON {
				fields = append(fields, f)
			}
		}
		if len(fields) != 1 || fields[0] != dimFields[i] {
			t.Errorf("dimension %s: fields %v carry key %q, decodeSweep reads field %d", d.Name, fields, d.JSON, dimFields[i])
			continue
		}
		ft := rt.Field(fields[0]).Type
		list := []reflect.Kind{reflect.String, reflect.Bool, reflect.Int, reflect.Int64}
		if ft.Kind() != reflect.String && (ft.Kind() != reflect.Slice || !slices.Contains(list, ft.Elem().Kind())) {
			t.Errorf("dimension %s: field %s has type %s", d.Name, rt.Field(fields[0]).Name, rt.Field(fields[0]).Type)
		}
	}
}

// TestPinnedPlanJobNames pins the names /v1/plan gives its jobs: the scale
// always spelled out, the engine never (every plan is analytic).
func TestPinnedPlanJobNames(t *testing.T) {
	for _, c := range []struct {
		cfg      experiments.Config
		deadline float64
		want     string
	}{
		{experiments.Config{Scale: experiments.ScaleQuick}, 0, "CapacityPlan/quick"},
		{experiments.Config{Scale: experiments.ScalePaper}, 0, "CapacityPlan/paper"},
		{experiments.Config{Scale: experiments.ScaleQuick, Seed: 3}, 0, "CapacityPlan/quick/seed=3"},
		{experiments.Config{Scale: experiments.ScaleQuick, FailureAt: 2}, 0, "CapacityPlan/quick/fail@2"},
		{experiments.Config{Scale: experiments.ScaleQuick, Nodes: 131072}, 0, "CapacityPlan/quick/nodes=131072"},
		{experiments.Config{Scale: experiments.ScaleQuick, Tenants: 4}, 700, "CapacityPlan/quick/tenants=4/deadline=700"},
		{experiments.Config{Scale: experiments.ScalePaper, Seed: -1, FailureAt: 3, Nodes: 64, Tenants: 2}, 12.5, "CapacityPlan/paper/seed=-1/fail@3/nodes=64/tenants=2/deadline=12.5"},
	} {
		c.cfg.Engine = experiments.EngineAnalytic
		if got := planJobName(c.cfg, c.deadline); got != c.want {
			t.Errorf("%+v deadline %g: got %q, want %q", c.cfg, c.deadline, got, c.want)
		}
	}
}
