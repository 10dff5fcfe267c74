package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/server"
)

// TestSweepServerMatchesCLI: for every sweep dimension at a non-default
// value, a stream:false /v1/sweep body is byte-identical to rcmpsim -json
// over the same grid, and a repeat is served from the cache byte for
// byte. Both requests are built from the dimension's row: its flag on
// the command line, its JSON key in the body.
func TestSweepServerMatchesCLI(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	// One non-default value per row, in its flag spelling, and a spec the
	// value applies to.
	values := map[string][2]string{
		"scale":       {"quick", "cost"},
		"seed":        {"1", "8b"},
		"failure-at":  {"2", "8b"},
		"schedule":    {"stic:3", "12"},
		"nodes":       {"16", "8b"},
		"tenants":     {"3", "multi-tenant"},
		"speculation": {"true", "dag-recovery"},
		"engine":      {"analytic", "8b"},
	}
	post := func(body map[string]any) []byte {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", b, resp.StatusCode, out)
		}
		return out
	}
	for _, d := range experiments.Dims() {
		v, ok := values[d.Name]
		if !ok {
			t.Fatalf("no test value for dimension %q", d.Name)
		}
		t.Run(d.Name, func(t *testing.T) {
			args := []string{"-fig", v[1], "-quick", "-json"}
			body := map[string]any{"specs": []string{v[1]}, "scale": "quick", "stream": false}
			var val any = v[0]
			switch d.Kind {
			case experiments.KindBool:
				args = append(args, "-"+d.Flag)
				val = true
			case experiments.KindInt:
				args = append(args, "-"+d.Flag, v[0])
				val = json.RawMessage(v[0])
			default:
				args = append(args, "-"+d.Flag, v[0])
			}
			if d.Name != "scale" {
				body[d.JSON] = []any{val}
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("rcmpsim %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
			}
			if got := post(body); !bytes.Equal(got, stdout.Bytes()) {
				t.Fatalf("server body differs from rcmpsim %s:\n%s\n----\n%s", strings.Join(args, " "), got, stdout.Bytes())
			}
			executed := executedJobs(t, ts.URL)
			if again := post(body); !bytes.Equal(again, stdout.Bytes()) {
				t.Fatal("cached repeat differs from the first answer")
			}
			if n := executedJobs(t, ts.URL); n != executed {
				t.Fatalf("cached repeat ran %d jobs, want none", n-executed)
			}
		})
	}
}

// executedJobs reads the server's count of simulated jobs from /v1/stats.
func executedJobs(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ExecutedJobs
}
