package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// asMainEnv makes the test binary behave as the benchmark binary, so the
// smoke test drives the real command line, child processes included.
const asMainEnv = "RCMPBENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runSelf(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, out)
	}
	return out
}

func readSet(t *testing.T, path string) resultSet {
	t.Helper()
	var set resultSet
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &set)
	}
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// Every workload runs, every output check passes, and every end-to-end
// metric is reported, non-zero, by every workload.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	runSelf(t, "-workload", "all", "-smoke", "-out", dir)
	set := readSet(t, filepath.Join(dir, "results.json"))
	if len(set.Runs) != len(workloads) {
		t.Fatalf("%d runs in the result set, want %d", len(set.Runs), len(workloads))
	}
	for _, r := range set.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", r.Workload, len(r.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", r.Workload, m.Name, v, m.Unit)
			}
		}
	}
	// A result set compared with itself has no regressed row.
	path := filepath.Join(dir, "results.json")
	runSelf(t, "compare", path, path)
}

// A traced run reports every per-layer metric and writes a Chrome trace.
func TestSmokeTracedRun(t *testing.T) {
	dir := t.TempDir()
	out := runSelf(t, "-workload", "dmr_kill", "-smoke", "-trace", "1", "-out", dir)
	lines := splitLines(out)
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace-dmr_kill.json"))
	if err == nil {
		err = json.Unmarshal(b, &trace)
	}
	if err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("Chrome trace: %v, %d events", err, len(trace.TraceEvents))
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		seen[e.Name] = true
	}
	for _, want := range []string{"StartMaster+StartWorker", "LoadInput", "Driver.RunChain", "OutputDigests", "run/recompute/job4"} {
		if !seen[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// A second measuring run is refused while the first holds the lock.
func TestSecondRunIsRefused(t *testing.T) {
	unlock, err := lock()
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	if _, err := lock(); err == nil {
		t.Error("a second lock succeeded while the first was held")
	}
}
