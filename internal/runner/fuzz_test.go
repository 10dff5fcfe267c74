package runner

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"rcmp/internal/experiments"
)

// FuzzIndentReport holds IndentReport to json.Indent: for any valid JSON,
// compacted as json.Compact writes it, the indenter must write exactly the
// bytes json.Indent(dst, compact, "", "  ") writes, and a newline. The
// seeds are reports over TestRowsComposeTheReport's edge rows (non-finite
// values, markup and quotes, a multi-line error, no results) and a few
// bodies of nested, empty and escaped values.
func FuzzIndentReport(f *testing.F) {
	cfg := experiments.Config{Scale: experiments.ScaleQuick, Seed: 3}
	edges := [][]Result{
		{{Name: "nonfinite/seed=3", Config: cfg, Res: &experiments.Result{
			Name:   "NonFinite",
			Values: map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1), "tiny": 5e-324, "neg0": math.Copysign(0, -1)},
		}}},
		{{Name: "html <&>", Config: cfg, Res: &experiments.Result{
			Name: "A<B & C>D", Text: "<table>\n  a & b > c\t\"quoted\"\n</table>\n", Values: map[string]float64{"x<y": 1, "a&b": 1.0 / 3},
		}}},
		{RunOne(Job{Name: "panicky/seed=3", Config: cfg, Run: func(experiments.Config) (*experiments.Result, error) {
			panic("simulated <bug> & more\nsecond line")
		}}, nil)},
		nil,
	}
	for _, results := range edges {
		rows := make([]Row, len(results))
		for i, res := range results {
			rows[i] = Row{Name: res.Name, JSON: EncodeRow(res, false)}
		}
		compact, err := AppendReport(nil, rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compact)
	}
	for _, s := range []string{
		`{}`, `[]`, `""`, `-1.5e-7`, `null`,
		`{"a":[{},[],{"b":"x\"y\\","c":[true,false,null]}],"":" \\\""}`,
		`[[[[{"k":"v"}]]],"\"]"]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if !json.Valid(in) {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, in); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if got := IndentReport(compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("IndentReport(%q):\n%s\nwant\n%s", compact.Bytes(), got, want.Bytes())
		}
	})
}
