package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rcmp/bench/stats"
)

// compare: one row per (workload, metric) of two result sets, A the base.

// row statuses.
const (
	statusOK         = "ok"
	statusRegressed  = "regressed"
	statusUnresolved = "unresolved" // run-to-run spread wider than the bound
	statusInfo       = "info"       // per-layer timing: no bound
)

type compareRow struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // q1, median, q3
	Ratio                  float64    // B median / A median
	Bound                  float64
	Status                 string
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (A is the base)")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	rows, failShare := compareSets(sets[0], sets[1])
	return printComparison(os.Stdout, rows, failShare)
}

// compareSets builds the rows, and per workload the fail_share of each side.
func compareSets(a, b resultSet) (rows []compareRow, failShare map[string][2]float64) {
	failShare = map[string][2]float64{}
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, w := range workloads {
		ra, rb := runsOf(a, w.name), runsOf(b, w.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		failShare[w.name] = [2]float64{failShareOf(ra), failShareOf(rb)}
		for _, m := range defs {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows = append(rows, compareMetric(w.name, m, va, vb))
		}
	}
	return rows, failShare
}

func runsOf(s resultSet, workload string) []setRun {
	var out []setRun
	for _, r := range s.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []setRun, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failShareOf(runs []setRun) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func compareMetric(workload string, m metricDef, va, vb []float64) compareRow {
	row := compareRow{Workload: workload, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
	row.A[0], row.A[1], row.A[2] = stats.Quartiles(va)
	row.B[0], row.B[1], row.B[2] = stats.Quartiles(vb)
	row.Ratio = row.B[1] / row.A[1]
	switch {
	case m.Exact:
		row.Status = statusOK
		for _, v := range append(append([]float64(nil), va...), vb...) {
			if v != va[0] {
				row.Status = statusRegressed
			}
		}
	case m.Bound == 0:
		row.Status = statusInfo
	default:
		worse := (row.B[1] - row.A[1]) / row.A[1]
		if m.Better == "higher" {
			worse = -worse
		}
		switch {
		case max(stats.Spread(va), stats.Spread(vb)) > m.Bound:
			row.Status = statusUnresolved
		case worse > m.Bound:
			row.Status = statusRegressed
		default:
			row.Status = statusOK
		}
	}
	return row
}

// printComparison prints the table and returns the exit code: non-zero on
// any regressed row or any fail_share increase.
func printComparison(w io.Writer, rows []compareRow, failShare map[string][2]float64) int {
	code := 0
	fmt.Fprintf(w, "%-11s %-34s %-6s %36s %36s %18s %6s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3]", "B median [q1, q3]", "ratio", "bound", "status")
	for _, r := range rows {
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.Bound*100)
		}
		fmt.Fprintf(w, "%-11s %-34s %-6s %12.6g [%10.5g, %10.5g] %12.6g [%10.5g, %10.5g] %8.4f x A=%-7.4g %6s  %s\n",
			r.Workload, r.Metric, r.Unit, r.A[1], r.A[0], r.A[2], r.B[1], r.B[0], r.B[2], r.Ratio, r.A[1], bound, r.Status)
		if r.Status == statusRegressed {
			code = 1
		}
	}
	for _, wl := range workloads {
		name := wl.name
		fs, ok := failShare[name]
		if !ok {
			continue
		}
		status := statusOK
		if fs[1] > fs[0] {
			status, code = statusRegressed, 1
		}
		fmt.Fprintf(w, "%-11s %-34s %-6s %12.6g %36.6g %45s  %s\n", name, "fail_share", "ratio", fs[0], fs[1], "any increase", status)
	}
	return code
}
