package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRun drives the command in-process: usage errors exit 2, a listener
// that cannot open exits 1, and a served instance prints its address,
// answers, and drains to exit 0 when stop fires.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr string // prefix of the first stderr line; "" for none
	}{
		{"help", []string{"-h"}, 0, "Usage of rcmpserve:"},
		{"bad flag value", []string{"-workers", "x"}, 2, `invalid value "x" for flag -workers`},
		{"unknown flag", []string{"-ff"}, 2, "flag provided but not defined: -ff"},
		{"stray argument", []string{"-addr", "127.0.0.1:0", "extra"}, 2, `rcmpserve: unexpected argument "extra"`},
		{"bad address", []string{"-addr", "no-port"}, 1, "rcmpserve: listen tcp: address no-port: missing port in address"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr, nil)
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if code != c.code || !strings.HasPrefix(first, c.stderr) || c.stderr == "" && first != "" {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr prefix %q", code, first, c.code, c.stderr)
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout %q, want none", stdout.String())
			}
		})
	}

	t.Run("serve and drain", func(t *testing.T) {
		stop := make(chan os.Signal, 1)
		out, outW := io.Pipe()
		var stderr bytes.Buffer
		code := make(chan int, 1)
		go func() {
			code <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, outW, &stderr, stop)
			outW.Close()
		}()
		lines := bufio.NewScanner(out)
		if !lines.Scan() {
			t.Fatalf("no listening line (stderr %q)", stderr.String())
		}
		base, ok := strings.CutPrefix(lines.Text(), "rcmpserve: listening on ")
		if !ok {
			t.Fatalf("first stdout line %q, want the listening address", lines.Text())
		}
		resp, err := http.Post(base+"/v1/sweep", "application/json",
			strings.NewReader(`{"specs":["cost"],"scale":"quick","stream":false}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"name": "CostModels/quick"`)) {
			t.Fatalf("sweep: %d %s", resp.StatusCode, body)
		}

		stop <- syscall.SIGTERM
		var rest []string
		for lines.Scan() {
			rest = append(rest, lines.Text())
		}
		select {
		case c := <-code:
			if c != 0 {
				t.Fatalf("exit %d after stop, want 0 (stderr %q)", c, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after stop")
		}
		if want := []string{"rcmpserve: terminated, draining", "rcmpserve: drained, exiting"}; strings.Join(rest, "\n") != strings.Join(want, "\n") {
			t.Fatalf("stdout after the address %q, want %q", rest, want)
		}
		if stderr.Len() != 0 {
			t.Fatalf("stderr %q", stderr.String())
		}
		if _, err := http.Get(base + "/healthz"); err == nil {
			t.Fatal("server still answering after the drain")
		}
	})
}
