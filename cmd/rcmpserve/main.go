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
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rcmp/internal/server"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address (host:port; port 0 picks an ephemeral port)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "global bound on queued jobs before 429 (0 = default 4096)")
	maxBacklog := flag.Int("max-client-backlog", 0, "per-client queued+running job cap (0 = default 1024)")
	maxJobs := flag.Int("max-jobs", 0, "per-request sweep grid cap before 413 (0 = default 1024)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache capacity in entries (0 = default 8192)")
	reqTimeout := flag.Duration("request-timeout", 0, "upper bound on one sweep's wait (0 = default 120s)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for admitted jobs before failing them")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rcmpserve: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:           *workers,
		MaxQueuedJobs:     *maxQueue,
		MaxClientBacklog:  *maxBacklog,
		MaxJobsPerRequest: *maxJobs,
		CacheEntries:      *cacheEntries,
		RequestTimeout:    *reqTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcmpserve: %v\n", err)
		os.Exit(1)
	}
	// The resolved address goes to stdout so scripts using -addr :0 can
	// scrape the ephemeral port.
	fmt.Printf("rcmpserve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("rcmpserve: %v, draining\n", s)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "rcmpserve: serve: %v\n", err)
		os.Exit(1)
	}

	// Drain order matters: first stop admitting and finish the simulation
	// backlog, then close the HTTP server so in-flight streams can deliver
	// their final reports.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rcmpserve: drain: %v\n", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "rcmpserve: http shutdown: %v\n", err)
	}
	fmt.Println("rcmpserve: drained, exiting")
}
