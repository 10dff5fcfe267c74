package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command in-process: usage errors exit 2 with a named
// message, per-job config errors exit 1 (the sweep server reports the same
// values as per-job errors), and the smoke invocations — the
// schedule-engine, scaling, analytic and graph-driven tiers through the
// parallel runner — exit 0 with a report on stdout.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string // prefix of the first stderr line; "" for none
	}{
		{"no arguments", nil, 2, ""},
		{"list", []string{"-list"}, 0, ""},
		{"unknown fig", []string{"-fig", "99z"}, 2, `rcmpsim: unknown figure "99z"`},
		{"bad run regexp", []string{"-run", "["}, 2, "rcmpsim: bad -run pattern"},
		{"failure-at with schedule", []string{"-fig", "8b", "-failure-at", "2", "-schedule", "2@15"}, 2,
			"rcmpsim: -failure-at and -schedule are mutually exclusive"},
		{"bad schedule", []string{"-fig", "8b", "-schedule", "2@x"}, 2, `rcmpsim: failure: bad schedule pulse "2@x"`},
		{"bad seeds", []string{"-fig", "8b", "-seeds", "0,x"}, 2, `rcmpsim: bad -seeds entry "x"`},
		{"bad engine", []string{"-fig", "8b", "-engine", "gpu"}, 2, `rcmpsim: experiments: unknown engine "gpu"`},
		{"seed set below range", []string{"-fig", "8b", "-quick", "-seed-set", "-3"}, 2, "rcmpsim: seed_set=-3 out of range [0, 1024]"},
		{"seed set above range", []string{"-fig", "8b", "-quick", "-seed-set", "1025"}, 2, "rcmpsim: seed_set=1025 out of range [0, 1024]"},
		{"ff is gone", []string{"-fig", "8b", "-ff"}, 2, "flag provided but not defined: -ff"},
		{"stray argument", []string{"-fig", "8a", "-quick", "extra", "-json"}, 2, `rcmpsim: unexpected argument "extra"`},
		{"negative nodes", []string{"-fig", "8b", "-quick", "-nodes", "-5"}, 1, "rcmpsim: Fig8b/quick: experiments: Nodes=-5 out of range"},
		{"negative tenants", []string{"-fig", "multi-tenant", "-quick", "-tenants", "-1"}, 1,
			"rcmpsim: MultiTenant/quick: experiments: Tenants=-1 out of range"},
		{"schedule losing every replica", []string{"-fig", "8b", "-quick", "-schedule", "2@15,4@5x2"}, 1,
			"rcmpsim: Fig8b/quick/sched=2@15x1,4@5x2: experiment SLOTS 1-1, STIC: hadoop: input out3/p4 lost; replication 2 insufficient"},

		{"double failure", []string{"-fig", "double-failure", "-quick", "-parallel", "2"}, 0, ""},
		{"trace replay json", []string{"-fig", "trace-replay", "-quick", "-parallel", "2", "-json"}, 0, ""},
		{"schedule", []string{"-fig", "12", "-quick", "-schedule", "2@15,3@20"}, 0, ""},
		{"weak scaling", []string{"-fig", "weak-scaling", "-quick"}, 0, ""},
		{"nodes override", []string{"-fig", "8b", "-quick", "-nodes", "16"}, 0, ""},
		{"analytic past the DES ceiling", []string{"-fig", "weak-scaling", "-quick", "-engine", "analytic", "-nodes", "131072"}, 0, ""},
		{"analytic seed set", []string{"-fig", "8b", "-quick", "-engine", "analytic", "-seed-set", "3", "-json"}, 0, ""},
		{"dag recovery", []string{"-fig", "dag-recovery", "-quick"}, 0, ""},
		{"multi-tenant json", []string{"-fig", "multi-tenant", "-quick", "-parallel", "2", "-json"}, 0, ""},
		{"tenants override", []string{"-fig", "multi-tenant", "-quick", "-tenants", "3"}, 0, ""},
		{"speculation", []string{"-fig", "dag-recovery", "-quick", "-speculation"}, 0, ""},
		{"engine in the server's spelling", []string{"-fig", "cost", "-quick", "-engine", " DES "}, 0, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if code != c.code {
				t.Fatalf("exit %d, want %d (stderr: %q)", code, c.code, first)
			}
			if c.stderr == "" && first != "" || !strings.HasPrefix(first, c.stderr) {
				t.Fatalf("stderr first line %q, want prefix %q", first, c.stderr)
			}
			if strings.Contains(stderr.String(), "goroutine ") {
				t.Fatalf("stderr carries a stack trace:\n%s", stderr.String())
			}
			if code == 0 && stdout.Len() == 0 {
				t.Fatal("exit 0 with no output")
			}
		})
	}
}
