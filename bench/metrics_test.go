package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The committed BENCHMARK.json is the tables in metrics.go and harness.go,
// nothing else: regenerate it with `-print-benchmark-json`.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	generated, _ := json.Marshal(benchmarkJSON())
	var want, got any
	if err := json.Unmarshal(generated, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the metric and workload tables; regenerate it with -print-benchmark-json")
	}
}

// The limits of the benchmark contract that the tables could break.
func TestTablesMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a contract name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not a contract unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", runSeconds)
	}
}
