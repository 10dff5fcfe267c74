package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command in-process: a missing or unknown subcommand,
// a stray positional argument and a bad -kill spec exit 2 with a named
// message, and a tiny demo — a failure-free reference run, then the same
// chain losing a worker — exits 0 with its outputs verified against the
// reference.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string // prefix of the first stderr line; "" for none
		stdout string // a line stdout must contain; "" for none
	}{
		{"no subcommand", nil, 2, "usage: rcmpd <demo|compare|master|worker>", ""},
		{"unknown subcommand", []string{"serve"}, 2, "usage: rcmpd <demo|compare|master|worker>", ""},
		{"stray argument", []string{"demo", "extra", "-jobs", "2"}, 2, `rcmpd: unexpected argument "extra"`, ""},
		{"worker stray argument", []string{"worker", "-id", "1", "extra"}, 2, `rcmpd: unexpected argument "extra"`, ""},
		{"bad kill spec", []string{"demo", "-kill", "job=0,worker=1"}, 2, `rcmpd: kill spec "job=0,worker=1" needs job>=1`, ""},
		{"compare bad kill spec", []string{"compare", "-kill", "job=2"}, 2, `rcmpd: kill spec "job=2" needs job>=1`, ""},
		{"compare with split", []string{"compare", "-split"}, 2, "rcmpd: compare sets the strategy itself", ""},
		{"undefined flag", []string{"demo", "-nodes", "3"}, 2, "flag provided but not defined: -nodes", ""},
		{"help", []string{"master", "-h"}, 0, "Usage of master:", ""},

		{"tiny demo", []string{"demo", "-workers", "3", "-jobs", "2", "-reducers", "3",
			"-records-per-part", "40", "-block-records", "20", "-kill", "job=1,worker=1"},
			0, "", "output verified: 3 partitions byte-equivalent to the failure-free run"},
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

func TestParseKills(t *testing.T) {
	kills, err := parseKills("job=2,worker=1;job=4,worker=3;job=2,worker=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(kills[2]) != 2 || kills[2][0] != 1 || kills[2][1] != 0 {
		t.Fatalf("kills[2] = %v", kills[2])
	}
	if len(kills[4]) != 1 || kills[4][0] != 3 {
		t.Fatalf("kills[4] = %v", kills[4])
	}

	empty, err := parseKills("")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty spec: %v, %v", empty, err)
	}

	for _, bad := range []string{
		"job=2",           // missing worker
		"worker=1",        // missing job
		"job=0,worker=1",  // job must be >= 1
		"job=2,worker=-1", // worker must be >= 0
		"job=x,worker=1",  // not a number
		"job:2,worker:1",  // wrong separator
		"job=2,node=1",    // unknown key
	} {
		if _, err := parseKills(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
