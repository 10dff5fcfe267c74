// Command rcmpserve exposes the RCMP experiment runner as a long-running
// sweep service. Clients POST sweep grids — the same spec × scale × seed ×
// failure-schedule × cluster-size dimensions as the rcmpsim CLI — to
// /v1/sweep and get per-job results streamed back as NDJSON (or SSE) while
// the final report stays deterministic and input-ordered. Repeated grid
// points are served out of a digest-keyed result cache without re-running
// the simulation; see docs/serving.md for the API and the cache-soundness
// argument.
//
// Usage:
//
//	rcmpserve                                # listen on :8344
//	rcmpserve -addr 127.0.0.1:0              # ephemeral port (printed on stdout)
//	rcmpserve -workers 8 -cache-entries 16384
//
// The server drains on SIGINT/SIGTERM: new sweeps get 503, admitted jobs
// run to completion (bounded by -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rcmp/internal/server"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the whole command behind main: it parses args, serves until a
// value arrives on stop (main's SIGINT/SIGTERM), drains, and returns the
// exit code — 0 after a drain, 1 when the listener or the server fails,
// 2 on a usage error.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	flags := flag.NewFlagSet("rcmpserve", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", ":8344", "listen address (host:port; port 0 picks an ephemeral port)")
	workers := flags.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	maxQueue := flags.Int("max-queue", 0, "global bound on queued jobs before 429 (0 = default 4096)")
	maxBacklog := flags.Int("max-client-backlog", 0, "per-client queued+running job cap (0 = default 1024)")
	maxJobs := flags.Int("max-jobs", 0, "per-request sweep grid cap before 413 (0 = default 1024)")
	cacheEntries := flags.Int("cache-entries", 0, "result cache capacity in entries (0 = default 8192)")
	reqTimeout := flags.Duration("request-timeout", 0, "upper bound on one sweep's wait (0 = default 120s)")
	drainTimeout := flags.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for admitted jobs before failing them")
	if err := flags.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if flags.NArg() > 0 {
		fmt.Fprintf(stderr, "rcmpserve: unexpected argument %q\n", flags.Arg(0))
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "rcmpserve: %v\n", err)
		return 1
	}
	srv := server.New(server.Config{
		Workers:           *workers,
		MaxQueuedJobs:     *maxQueue,
		MaxClientBacklog:  *maxBacklog,
		MaxJobsPerRequest: *maxJobs,
		CacheEntries:      *cacheEntries,
		RequestTimeout:    *reqTimeout,
	})
	// The resolved address goes to stdout so scripts using -addr :0 can
	// scrape the ephemeral port.
	fmt.Fprintf(stdout, "rcmpserve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	code := 0
	select {
	case s := <-stop:
		fmt.Fprintf(stdout, "rcmpserve: %v, draining\n", s)
	case err := <-serveErr:
		fmt.Fprintf(stderr, "rcmpserve: serve: %v\n", err)
		code = 1
	}

	// Drain order matters: first stop admitting and finish the simulation
	// backlog, then close the HTTP server so in-flight streams can deliver
	// their final reports.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "rcmpserve: drain: %v\n", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "rcmpserve: http shutdown: %v\n", err)
	}
	if code == 0 {
		fmt.Fprintln(stdout, "rcmpserve: drained, exiting")
	}
	return code
}
