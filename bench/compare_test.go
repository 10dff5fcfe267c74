package main

import (
	"bytes"
	"strings"
	"testing"
)

// set builds a synthetic result set: per workload, one run per value of the
// metric; failed ops go on the first run.
func set(workload, metric string, failed int, values ...float64) resultSet {
	var s resultSet
	for i, v := range values {
		r := setRun{Workload: workload}
		r.Attempted = 100
		if i == 0 {
			r.Failed = failed
		}
		r.Correct = r.Failed == 0
		r.Metrics = map[string]metricValue{metric: {Value: v}}
		s.Runs = append(s.Runs, r)
	}
	return s
}

func TestCompareStatuses(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	// Factors just inside and well outside op_p50_ms's bound, whatever the
	// table sets it to.
	bound := 0.0
	for _, m := range endToEnd {
		if m.Name == "op_p50_ms" {
			bound = m.Bound
		}
	}
	inside, outside := 1+0.8*bound, 1+1.5*bound
	for _, c := range []struct {
		name, metric string
		a, b         []float64
		want         string
	}{
		{"same", "op_p50_ms", steady, steady, statusOK},
		{"worse within the bound", "op_p50_ms", steady, scaled(inside), statusOK},
		{"lower-is-better got worse by more than the bound", "op_p50_ms", steady, scaled(outside), statusRegressed},
		{"lower-is-better got better", "op_p50_ms", steady, scaled(0.5), statusOK},
		{"higher-is-better dropped by more than the bound", "ops_per_s", steady, scaled(2 - outside), statusRegressed},
		{"higher-is-better dropped within the bound", "ops_per_s", steady, scaled(2 - inside), statusOK},
		{"higher-is-better rose", "ops_per_s", steady, scaled(1.5), statusOK},
		{"spread wider than the bound", "op_p50_ms", noisy, scaled(1.5), statusUnresolved},
		{"exact count equal", "mapreduce.events", []float64{155131, 155131}, []float64{155131}, statusOK},
		{"exact count off by one", "mapreduce.events", []float64{155131}, []float64{155132}, statusRegressed},
		{"per-layer timing carries no verdict", "des.ns_per_event", steady, scaled(3), statusInfo},
	} {
		rows, _ := compareSets(set("scale_ff", c.metric, 0, c.a...), set("scale_ff", c.metric, 0, c.b...))
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, len(rows))
		}
		if rows[0].Status != c.want {
			t.Errorf("%s: status %s, want %s (ratio %v)", c.name, rows[0].Status, c.want, rows[0].Ratio)
		}
	}
}

func TestCompareRatioHasItsBase(t *testing.T) {
	rows, fs := compareSets(set("serve_hit", "ops_per_s", 0, 8000, 8200, 8100), set("serve_hit", "ops_per_s", 0, 4050))
	if len(rows) != 1 || rows[0].Ratio != 0.5 || rows[0].A[1] != 8100 {
		t.Fatalf("rows = %+v, want one row with ratio 0.5 over base 8100", rows)
	}
	var out bytes.Buffer
	if code := printComparison(&out, rows, fs); code != 1 {
		t.Errorf("exit code %d for a halved throughput, want 1", code)
	}
	if !strings.Contains(out.String(), "x A=8100") {
		t.Errorf("the ratio is printed without its base:\n%s", out.String())
	}
}

func TestCompareFailShare(t *testing.T) {
	for _, c := range []struct {
		name             string
		failedA, failedB int
		code             int
	}{
		{"both clean", 0, 0, 0},
		{"B fails an op", 0, 1, 1},
		{"B fails fewer", 3, 1, 0},
	} {
		rows, fs := compareSets(set("dmr_kill", "op_p50_ms", c.failedA, 400), set("dmr_kill", "op_p50_ms", c.failedB, 400))
		var out bytes.Buffer
		if code := printComparison(&out, rows, fs); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
	}
}

func TestCompareSkipsWorkloadsMissingOnOneSide(t *testing.T) {
	rows, fs := compareSets(set("figs_paper", "op_p50_ms", 0, 36), set("scale_ff", "op_p50_ms", 0, 50))
	if len(rows) != 0 || len(fs) != 0 {
		t.Errorf("rows %v, fail shares %v; want none", rows, fs)
	}
}
