package runner

import (
	"encoding/json"
	"io"
	"math"
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

// Report is a full result set ready for JSON encoding.
type Report struct {
	Results []ReportResult `json:"results"`
	// Aggregates holds the per-dispersion-set mean/CI95 columns of any
	// seed sweeps in the result set (see NewReport). Absent entirely when
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

// NewReport converts runner results. With withTiming false the report is a
// pure function of the jobs' Configs: encoding it for the same jobs and
// seeds yields byte-identical output whatever the worker count.
//
// Results that differ only in their Config's Seed form a dispersion set;
// every set with at least two successful members is summarized in
// Aggregates with per-key mean and CI95 columns. This is how a Grid
// SeedSet sweep reports signal vs seed noise, and the form the analytic
// engine's calibration consumes (mean probe totals, not one seed's).
func NewReport(results []Result, withTiming bool) Report {
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

// aggregateSeedSets groups successful results by job name modulo the seed
// component and summarizes every group that spans more than one result.
// Groups appear in first-member order and nothing is emitted when no
// group qualifies, keeping aggregation-free reports byte-stable.
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

// WriteJSON encodes results as indented JSON.
func WriteJSON(w io.Writer, results []Result, withTiming bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewReport(results, withTiming))
}

// MarshalJSONDeterministic returns the timing-free encoding of results —
// the byte string the determinism guarantee is stated over.
func MarshalJSONDeterministic(results []Result) ([]byte, error) {
	return json.MarshalIndent(NewReport(results, false), "", "  ")
}
