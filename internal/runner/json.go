package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"rcmp/internal/experiments"
)

// ReportResult is the machine-readable form of one Result.
type ReportResult struct {
	Name string `json:"name"`
	// Echo states the job's Config, one field per sweep dimension.
	experiments.Echo
	// Error is the job's error message line. Recovered panics carry a
	// stack trace in Result.Err, but stacks are nondeterministic (frame
	// addresses, goroutine IDs), so the report keeps the message only —
	// the determinism guarantee covers error rows too.
	Error string `json:"error,omitempty"`
	// Experiment is the Result.Name the experiment itself reported.
	Experiment string `json:"experiment,omitempty"`
	// Values holds the figure's key numbers. Non-finite values are encoded
	// as the strings "NaN", "+Inf" and "-Inf" (JSON has no such numbers).
	Values map[string]any `json:"values,omitempty"`
	Text   string         `json:"text,omitempty"`
	// ElapsedMS is wall-clock time, present only when the report was built
	// with timing enabled — it is the one non-deterministic field.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Report is the schema of a JSON report: AppendReport writes it from
// encoded rows, and clients decode into it.
type Report struct {
	Results []ReportResult `json:"results"`
	// Aggregates holds the per-dispersion-set mean/CI95 columns of any
	// seed sweeps in the result set (see AppendReport). Absent entirely when
	// no group spans more than one seed, so single-seed reports are
	// byte-identical to reports produced before aggregation existed.
	Aggregates []AggregateResult `json:"aggregates,omitempty"`
}

// AggregateResult summarizes one dispersion set: every successful result
// whose job differs only in Seed, collapsed to per-key mean and CI95.
type AggregateResult struct {
	// Name is the group's job name with the "/seed=N" component removed.
	Name string `json:"name"`
	// Seeds lists the seeds aggregated, in result order.
	Seeds []int64 `json:"seeds"`
	// Values maps each figure key to its dispersion summary. Keys missing
	// or non-finite in any member are dropped: a mean over half the seeds
	// would silently misstate the dispersion.
	Values map[string]AggregateValue `json:"values"`
}

// AggregateValue is the dispersion summary of one figure value across a
// seed set.
type AggregateValue struct {
	Mean float64 `json:"mean"`
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval (1.96·s/√n with the sample standard deviation); 0 for
	// groups whose values are identical across seeds.
	CI95 float64 `json:"ci95"`
}

// EncodeRow returns res's report row: the compact JSON of its
// ReportResult, the one row encoding WriteJSON, the sweep server's
// reports and its plan answers share. With withTiming false the row is a
// pure function of the job's Config, so a caller may encode it once and
// serve the bytes for as long as it likes.
func EncodeRow(res Result, withTiming bool) []byte {
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
	b, err := json.Marshal(rr)
	if err != nil {
		// finiteValues leaves only finite floats and strings, and no other
		// field can fail to encode.
		panic(fmt.Sprintf("runner: encode row %q: %v", res.Name, err))
	}
	return b
}

// Row is one job's encoded report row (EncodeRow) and its job name, which
// seed-set aggregation groups by without decoding the row.
type Row struct {
	Name string
	JSON []byte
}

// AppendReport appends the compact JSON of the Report over rows to dst:
// the rows in order, then the Aggregates.
//
// Rows whose job names differ only in the "/seed=N" component form a
// dispersion set; every set with at least two successful members (rows
// without an error) is summarized with per-key mean and CI95 columns, in
// first-member order. This is how a Grid SeedSet sweep reports signal vs
// seed noise. Only the rows of names that repeat are decoded, and JSON
// floats round-trip exactly, so the columns are those of the unencoded
// values. The aggregates key is absent when no set qualifies, so
// single-seed reports are byte-identical to reports produced before
// aggregation existed.
func AppendReport(dst []byte, rows []Row) ([]byte, error) {
	n := len(`{"results":[]}`) + len(rows)
	for _, r := range rows {
		n += len(r.JSON)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, `{"results":[`...)
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, r.JSON...)
	}
	dst = append(dst, ']')
	aggs, err := aggregateRows(rows)
	if err != nil {
		return nil, err
	}
	if len(aggs) > 0 {
		b, err := json.Marshal(aggs)
		if err != nil {
			return nil, fmt.Errorf("runner: encode aggregates: %w", err)
		}
		dst = append(dst, `,"aggregates":`...)
		dst = append(dst, b...)
	}
	return append(dst, '}'), nil
}

// IndentReport returns the indented form of a compact report
// (AppendReport) and a newline: the bytes WriteJSON writes.
func IndentReport(compact []byte) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, 2*len(compact)))
	if err := json.Indent(buf, compact, "", "  "); err != nil {
		return nil, fmt.Errorf("runner: indent report: %w", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// aggregateRows summarizes the dispersion sets among rows (see
// AppendReport). It returns nil when no set qualifies.
func aggregateRows(rows []Row) ([]AggregateResult, error) {
	names := make([]string, len(rows))
	count := make(map[string]int, len(rows))
	repeats := false
	for i, r := range rows {
		names[i] = stripSeed(r.Name)
		count[names[i]]++
		repeats = repeats || count[names[i]] > 1
	}
	if !repeats {
		return nil, nil
	}
	type group struct {
		seeds  []int64
		values []map[string]float64
	}
	byName := make(map[string]*group)
	var order []string
	for i, r := range rows {
		if count[names[i]] < 2 {
			continue
		}
		var row struct {
			Seed   int64          `json:"seed"`
			Error  string         `json:"error"`
			Values map[string]any `json:"values"`
		}
		if err := json.Unmarshal(r.JSON, &row); err != nil {
			return nil, fmt.Errorf("runner: decode row %q: %w", r.Name, err)
		}
		if row.Error != "" {
			continue
		}
		g, ok := byName[names[i]]
		if !ok {
			g = &group{}
			byName[names[i]] = g
			order = append(order, names[i])
		}
		g.seeds = append(g.seeds, row.Seed)
		g.values = append(g.values, finiteOnly(row.Values))
	}
	var out []AggregateResult
	for _, name := range order {
		g := byName[name]
		if len(g.seeds) < 2 {
			continue
		}
		out = append(out, AggregateResult{Name: name, Seeds: g.seeds, Values: dispersion(g.values)})
	}
	return out, nil
}

// finiteOnly keeps a decoded row's numeric values. The strings
// finiteValues wrote for NaN and infinities are dropped, which is what
// dispersion does with a non-finite key anyway.
func finiteOnly(vals map[string]any) map[string]float64 {
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// stripSeed removes the "/seed=N" path component from a job name.
func stripSeed(name string) string {
	i := strings.Index(name, "/seed=")
	if i < 0 {
		return name
	}
	rest := name[i+1:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return name[:i] + rest[j:]
	}
	return name[:i]
}

// dispersion computes per-key mean and CI95 across value maps, keeping
// only keys finite and present in every member.
func dispersion(sets []map[string]float64) map[string]AggregateValue {
	out := make(map[string]AggregateValue)
	n := float64(len(sets))
	for k := range sets[0] {
		ok := true
		sum := 0.0
		for _, s := range sets {
			v, present := s[k]
			if !present || math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
			sum += v
		}
		if !ok {
			continue
		}
		mean := sum / n
		var sq float64
		for _, s := range sets {
			d := s[k] - mean
			sq += d * d
		}
		sd := math.Sqrt(sq / (n - 1))
		out[k] = AggregateValue{Mean: mean, CI95: 1.96 * sd / math.Sqrt(n)}
	}
	return out
}

// finiteValues maps non-finite floats to strings; encoding/json rejects
// NaN and infinities, and a few figures legitimately produce them (missing
// strategies, empty duration sets). Map keys are sorted by the encoder, so
// the result is deterministic.
func finiteValues(vals map[string]float64) map[string]any {
	if len(vals) == 0 {
		return nil
	}
	out := make(map[string]any, len(vals))
	for k, v := range vals {
		switch {
		case math.IsNaN(v):
			out[k] = "NaN"
		case math.IsInf(v, 1):
			out[k] = "+Inf"
		case math.IsInf(v, -1):
			out[k] = "-Inf"
		default:
			out[k] = v
		}
	}
	return out
}

// WriteJSON writes the indented JSON report of results and a newline.
func WriteJSON(w io.Writer, results []Result, withTiming bool) error {
	rows := make([]Row, len(results))
	for i, res := range results {
		rows[i] = Row{Name: res.Name, JSON: EncodeRow(res, withTiming)}
	}
	compact, err := AppendReport(nil, rows)
	if err != nil {
		return err
	}
	b, err := IndentReport(compact)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
