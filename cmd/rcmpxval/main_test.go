package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command in-process: usage and spec errors exit 2 with
// a named message, and the cross-validation smokes — one failure offset
// plain, one under the chaos transport — exit 0, so a recovery-decision
// divergence between the simulator and the distributed runtime fails
// tier-1.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string // prefix of the first stderr line; "" for none
	}{
		{"no offsets", []string{"-offsets", ","}, 2, "rcmpxval: no offsets given"},
		{"bad offset", []string{"-offsets", "0.2,x"}, 2, `rcmpxval: bad offset "x"`},
		{"stray argument", []string{"extra", "-offsets", "0.25", "-task-delay", "60ms"}, 2, `rcmpxval: unexpected argument "extra"`},
		{"negative nodes", []string{"-nodes", "-3"}, 2, "rcmpxval: xval: Nodes=-3, need at least 2"},

		{"one offset", []string{"-offsets", "0.25", "-task-delay", "60ms"}, 0, ""},
		{"one offset under chaos", []string{"-offsets", "0.25", "-task-delay", "60ms", "-chaos", "-chaos-seed", "3"}, 0, ""},
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
			if code == 0 && stdout.Len() == 0 {
				t.Fatal("exit 0 with no output")
			}
		})
	}
}
