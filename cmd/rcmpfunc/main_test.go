package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command in-process: a bad -fail spec and a stray
// positional argument exit 2 with a named message, -h prints the flags and
// exits 0, a failure outside the chain exits 1, and a small chain that
// loses a node and recovers with split reducers exits 0 with its output
// verified against the failure-free run.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string // prefix of the first stderr line; "" for none
		stdout string // a line stdout must contain; "" for none
	}{
		{"bad fail spec", []string{"-fail", "4-2"}, 2, `invalid value "4-2" for flag -fail: want JOB:NODE, got "4-2"`, ""},
		{"stray argument", []string{"-jobs", "2", "extra"}, 2, `rcmpfunc: unexpected argument "extra"`, ""},
		{"help", []string{"-h"}, 0, "Usage of rcmpfunc:", ""},
		{"failure outside the chain", []string{"-jobs", "2", "-fail", "3:1"}, 1,
			"rcmpfunc: chain failed: engine: failure before job 3 outside chain", ""},

		{"split recovery", []string{"-nodes", "4", "-jobs", "3", "-records", "100", "-split", "-fail", "3:1"},
			0, "", "VERIFIED: 4 partitions, 400 records, identical to the failure-free run"},
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
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Fatalf("stdout lacks %q:\n%s", c.stdout, stdout.String())
			}
		})
	}
}
