package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"rcmp/internal/experiments"
)

// marshalReport is the timing-free report of results as WriteJSON writes
// it.
func marshalReport(results []Result) ([]byte, error) {
	var buf bytes.Buffer
	err := WriteJSON(&buf, results, false)
	return buf.Bytes(), err
}

// newReport is the reference the row composition is held to: a Report
// built from decoded Results, the way reports were built before rows were
// encoded once and composed.
func newReport(results []Result, withTiming bool) Report {
	rep := Report{Results: make([]ReportResult, 0, len(results))}
	for _, res := range results {
		rr := ReportResult{
			Name:  res.Name,
			Echo:  res.Config.Echo(),
			Error: res.ErrMessage(),
		}
		if res.Res != nil {
			rr.Experiment = res.Res.Name
			rr.Text = res.Res.Text
			rr.Values = finiteValues(res.Res.Values)
		}
		if withTiming {
			rr.ElapsedMS = float64(res.Elapsed.Microseconds()) / 1000
		}
		rep.Results = append(rep.Results, rr)
	}
	rep.Aggregates = aggregateSeedSets(results)
	return rep
}

// aggregateSeedSets is the reference aggregation over decoded Results:
// successful results grouped by job name modulo the seed component, every
// group of two or more summarized, in first-member order.
func aggregateSeedSets(results []Result) []AggregateResult {
	type group struct {
		seeds  []int64
		values []map[string]float64
	}
	byName := make(map[string]*group)
	var order []string
	for _, res := range results {
		if res.Res == nil {
			continue
		}
		name := stripSeed(res.Name)
		g, ok := byName[name]
		if !ok {
			g = &group{}
			byName[name] = g
			order = append(order, name)
		}
		g.seeds = append(g.seeds, res.Config.Seed)
		g.values = append(g.values, res.Res.Values)
	}
	var out []AggregateResult
	for _, name := range order {
		g := byName[name]
		if len(g.seeds) < 2 {
			continue
		}
		out = append(out, AggregateResult{Name: name, Seeds: g.seeds, Values: dispersion(g.values)})
	}
	return out
}

// writeJSONRef is WriteJSON as it was before reports were composed from
// rows: one json.Encoder pass over the decoded Report.
func writeJSONRef(w io.Writer, results []Result, withTiming bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(newReport(results, withTiming))
}

// TestRowsComposeTheReport pins the one encoding path: a report composed
// from EncodeRow rows (AppendReport, IndentReport, WriteJSON) is
// byte-identical to json.MarshalIndent of the reference Report and to the
// reference WriteJSON, over every registry spec and every kind of row a
// report can hold.
func TestRowsComposeTheReport(t *testing.T) {
	var registry []experiments.Spec
	for _, sp := range experiments.Registry() {
		registry = append(registry, sp)
	}
	quick := (&Runner{}).Run(Grid{Specs: registry, Scales: []experiments.Scale{experiments.ScaleQuick}}.Jobs())
	seedSet := (&Runner{}).Run(Grid{Specs: []experiments.Spec{fakeSeedSpec()}, Seeds: []int64{0, 7}, SeedSet: 3}.Jobs())
	sp8b, _ := experiments.Lookup("8b")
	seedList := (&Runner{}).Run(Grid{Specs: []experiments.Spec{sp8b, sp8b}, Scales: []experiments.Scale{experiments.ScaleSmoke}, Seeds: []int64{1, 2}}.Jobs())

	cfg := experiments.Config{Scale: experiments.ScaleQuick, Seed: 3}
	nonFinite := Result{Name: "nonfinite/seed=3", Config: cfg, Res: &experiments.Result{
		Name:   "NonFinite",
		Values: map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1), "ok": 2.5, "tiny": 5e-324, "neg0": math.Copysign(0, -1)},
	}}
	html := Result{Name: "html <&>", Config: cfg, Res: &experiments.Result{
		Name: "A<B & C>D", Text: "<table>\n  a & b > c\t\"quoted\"\n</table>\n", Values: map[string]float64{"x<y": 1, "a&b": 1.0 / 3},
	}}
	panicked := RunOne(Job{Name: "panicky/seed=3", Config: cfg, Run: func(experiments.Config) (*experiments.Result, error) {
		panic("simulated <bug> & more\nsecond line")
	}}, nil)
	cfgErr := Result{Name: "bad/seed=4", Config: experiments.Config{Scale: experiments.ScaleQuick, Seed: 4, FailureAt: 99}, Err: "failure at run 99 exceeds the chain"}
	timedOut := Result{Name: "slow/seed=3", Config: cfg, Err: "server: request timed out before the job completed"}
	// A seed set whose middle member failed: the set aggregates the two
	// that succeeded.
	member := func(seed int64, v float64) Result {
		c := experiments.Config{Scale: experiments.ScaleQuick, Seed: seed}
		return Result{Name: fmt.Sprintf("Set/quick/seed=%d", seed), Config: c, Res: &experiments.Result{Name: "Set", Values: map[string]float64{"v": v, "half": math.Inf(int(seed) - 6)}}}
	}
	mixedSet := []Result{member(5, 0.1), {Name: "Set/quick/seed=6", Config: experiments.Config{Scale: experiments.ScaleQuick, Seed: 6}, Err: "boom"}, member(7, 0.7)}
	timed := append([]Result(nil), quick[:3]...)
	for i := range timed {
		timed[i].Elapsed = time.Duration(i+1) * 1234567 * time.Nanosecond
	}

	cases := []struct {
		name    string
		results []Result
		timing  bool
	}{
		{"registry quick", quick, false},
		{"seed set", seedSet, false},
		{"seed list with repeated spec", seedList, false},
		{"non-finite values", []Result{nonFinite, nonFinite}, false},
		{"html text", []Result{html}, false},
		{"error rows", []Result{panicked, cfgErr, nonFinite}, false},
		{"timed-out rows", []Result{quick[0], timedOut, timedOut}, false},
		{"seed set with an error member", mixedSet, false},
		{"timing", timed, true},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := WriteJSON(&got, tc.results, tc.timing); err != nil {
				t.Fatal(err)
			}
			var ref bytes.Buffer
			if err := writeJSONRef(&ref, tc.results, tc.timing); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Fatalf("WriteJSON differs from the reference encoder:\n%s\n----\n%s", got.Bytes(), ref.Bytes())
			}
			indented, err := json.MarshalIndent(newReport(tc.results, tc.timing), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), append(indented, '\n')) {
				t.Fatalf("WriteJSON differs from MarshalIndent of the reference Report:\n%s\n----\n%s", got.Bytes(), indented)
			}
			compact, err := json.Marshal(newReport(tc.results, tc.timing))
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]Row, len(tc.results))
			for i, res := range tc.results {
				rows[i] = Row{Name: res.Name, JSON: EncodeRow(res, tc.timing)}
			}
			if got, err := AppendReport(nil, rows); err != nil || !bytes.Equal(got, compact) {
				t.Fatalf("AppendReport (err %v) differs from Marshal of the reference Report:\n%s\n----\n%s", err, got, compact)
			}
		})
	}
	if len(newReport(seedSet, false).Aggregates) != 1 || len(newReport(seedList, false).Aggregates) != 1 || len(newReport(mixedSet, false).Aggregates) != 1 {
		t.Fatal("the seed-set cases no longer exercise aggregation")
	}
}
