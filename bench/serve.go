package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
	"rcmp/internal/server"
)

// The sweep-server workloads: serve_miss and serve_hit. Both are closed
// loops: each of e.clients connections sends its next request only after the
// previous reply. The worker pool (pinned to the client count) is the shared
// resource in serve_miss, so queue wait rises before throughput flattens.

// sweepSpecs are the four quick-scale DES jobs of one request.
var sweepSpecs = []string{"8b", "9", "dag-recovery", "double-failure"}

// hitGrids is the working set serve_hit cycles over: 400 cached results,
// far inside the server's 8192-entry cache.
const hitGrids = 100

// sweepBody is the request for one seed; even seeds stream NDJSON, odd ones
// ask for the single deterministic report.
func sweepBody(seed int64) (body []byte, stream bool) {
	stream = seed%2 == 0
	b, _ := json.Marshal(server.SweepRequest{Specs: sweepSpecs, Scale: "quick", Seeds: []int64{seed}, Stream: &stream})
	return b, stream
}

// sweepReference is what the server must answer to a stream:false request
// for seed: the runner's own JSON report of the same grid, run directly.
func sweepReference(seed int64) ([]byte, error) {
	var specs []experiments.Spec
	for _, k := range sweepSpecs {
		sp, ok := experiments.Lookup(k)
		if !ok {
			return nil, fmt.Errorf("serve: spec %q not registered", k)
		}
		specs = append(specs, sp)
	}
	jobs := runner.Grid{Specs: specs, Scales: []experiments.Scale{experiments.ScaleQuick}, Seeds: []int64{seed}}.Jobs()
	pool := runner.Runner{Workers: 1}
	var buf bytes.Buffer
	if err := runner.WriteJSON(&buf, pool.Run(jobs), false); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sweepServer is an in-process server.New behind a real loopback socket.
type sweepServer struct {
	srv    *server.Server
	http   *http.Server
	client *http.Client
	base   string
	done   chan struct{}
}

func startSweepServer(workers int) (*sweepServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	s := &sweepServer{
		srv:  server.New(server.Config{Workers: workers}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Timeout: 60 * time.Second,
			Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}},
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *sweepServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Errors here only say the 10 s ran out; the run is over either way.
	_ = s.srv.Shutdown(ctx)
	_ = s.http.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

// post sends one request and returns status and body.
func (s *sweepServer) post(path string, body []byte, lane int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Client-ID", fmt.Sprintf("bench-%d", lane))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (s *sweepServer) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// checkStream verifies NDJSON framing: one result per job, none dropped or
// duplicated, and a final report with one error-free row per job.
func checkStream(raw []byte, jobs int) string {
	seen := make([]bool, jobs)
	results, rows := 0, -1
	for _, line := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		var ev struct {
			Type   string `json:"type"`
			Index  int    `json:"index"`
			Error  string `json:"error"`
			Result struct {
				Error string `json:"error"`
			} `json:"result"`
			Report struct {
				Results []struct {
					Error string `json:"error"`
				} `json:"results"`
			} `json:"report"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Sprintf("bad stream line %.80q: %v", line, err)
		}
		switch ev.Type {
		case "result":
			if ev.Index < 0 || ev.Index >= jobs || seen[ev.Index] {
				return fmt.Sprintf("job index %d out of range or reported twice", ev.Index)
			}
			seen[ev.Index] = true
			results++
			if ev.Result.Error != "" {
				return "job error: " + ev.Result.Error
			}
		case "report":
			rows = len(ev.Report.Results)
			for _, rr := range ev.Report.Results {
				if rr.Error != "" {
					return "report row error: " + rr.Error
				}
			}
		case "error":
			return "stream error: " + ev.Error
		}
	}
	if results != jobs || rows != jobs {
		return fmt.Sprintf("%d result events and %d report rows for %d jobs", results, rows, jobs)
	}
	return ""
}

// serve drives POST /v1/sweep. In the miss variant every request carries a
// fresh seed, so all four jobs simulate; in the hit variant requests cycle
// over hitGrids seeds that set-up has already put in the cache.
type serve struct {
	hit     bool
	s       *sweepServer
	base    int64 // first seed of this run's range
	next    atomic.Int64
	before  server.Stats
	planned struct{ hits, misses int64 }

	mu sync.Mutex
	// bodies keeps stream:false replies for the reference check: every hit
	// grid's first reply, and a sample of the miss replies. verified marks
	// the ones a direct run has already confirmed.
	bodies   map[int64][]byte
	verified map[int64]bool
}

// missSample is which stream:false miss replies are checked against a
// direct run; checking all would cost as much as the workload itself.
const missSample = 16

func (w *serve) setup(e *env) error {
	var err error
	if w.s, err = startSweepServer(e.clients); err != nil {
		return err
	}
	w.base = e.seed * 1_000_000
	w.bodies, w.verified = map[int64][]byte{}, map[int64]bool{}
	// Warm-up doubles as the cache prefill in the hit variant; in the miss
	// variant it warms context pools, the heap and keep-alive connections
	// (the first 50 or so misses run at half speed) with seeds the measured
	// range never reaches.
	warm, first := int64(32*e.clients), w.base+900_000
	if e.smoke {
		warm = 4
	}
	if w.hit {
		warm, first = w.grids(e), w.base
	}
	var idx atomic.Int64
	errs := make(chan error, e.clients)
	for c := 0; c < e.clients; c++ {
		go func(lane int) {
			for {
				i := idx.Add(1) - 1
				if i >= warm {
					errs <- nil
					return
				}
				body, _ := sweepBody(first + i)
				status, raw, err := w.s.post("/v1/sweep", body, lane)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.120s", status, raw)
				}
				if err != nil {
					errs <- fmt.Errorf("serve: warm-up request: %w", err)
					return
				}
			}
		}(c)
	}
	for c := 0; c < e.clients; c++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	w.before, err = w.s.stats()
	return err
}

func (w *serve) grids(e *env) int64 {
	if e.smoke {
		return 8
	}
	return hitGrids
}

func (w *serve) run(e *env) {
	var wg sync.WaitGroup
	var done atomic.Int64
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for e.more(int(done.Add(1)-1), 50) {
				// Seeds are never reused, across phases either: a repeated
				// miss seed would be a cache hit.
				i := w.next.Add(1) - 1
				seed := w.base + i
				if w.hit {
					seed = w.base + i%w.grids(e)
				}
				w.request(e, seed, int(i), lane)
			}
		}(c)
	}
	wg.Wait()
}

func (w *serve) request(e *env, seed int64, op, lane int) {
	body, stream := sweepBody(seed)
	id := e.rec.begin("POST /v1/sweep", -1, op, lane)
	t := time.Now()
	status, raw, err := w.s.post("/v1/sweep", body, lane)
	d := time.Since(t)
	e.rec.end(id)

	problem := ""
	switch {
	case err != nil:
		problem = fmt.Sprintf("serve: seed %d: %v", seed, err)
	case status != http.StatusOK:
		problem = fmt.Sprintf("serve: seed %d: status %d: %.120s", seed, status, raw)
	case stream && (!w.hit || op%64 == 0):
		// A cached reply costs less than parsing it, so the hit variant
		// parses a sample and counts lines on the rest.
		if p := checkStream(raw, len(sweepSpecs)); p != "" {
			problem = fmt.Sprintf("serve: seed %d: %s", seed, p)
		}
	case stream:
		if n := bytes.Count(raw, []byte("\n")); n != len(sweepSpecs)+2 {
			problem = fmt.Sprintf("serve: seed %d: %d stream lines, want %d", seed, n, len(sweepSpecs)+2)
		}
	default:
		problem = w.keep(seed, op, raw)
	}
	e.op(d, problem)
}

// keep stores a stream:false reply for the reference check, and holds
// repeats of a grid to its first reply byte for byte.
func (w *serve) keep(seed int64, op int, raw []byte) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.bodies[seed]; ok {
		if !bytes.Equal(first, raw) {
			return fmt.Sprintf("serve: seed %d: reply differs from the first reply for the same grid", seed)
		}
		return ""
	}
	if w.hit || (op/2)%missSample == 0 {
		w.bodies[seed] = raw
	}
	return ""
}

func (w *serve) check(e *env) {
	n := int64(e.attempted)
	if w.hit {
		w.planned.hits += n * int64(len(sweepSpecs))
	} else {
		w.planned.misses += n * int64(len(sweepSpecs))
	}
	st, err := w.s.stats()
	if err != nil {
		e.fail("serve: /v1/stats: %v", err)
		return
	}
	hits, misses := st.Cache.Hits-w.before.Cache.Hits, st.Cache.Misses-w.before.Cache.Misses
	if hits != w.planned.hits || misses != w.planned.misses {
		e.fail("serve: /v1/stats counts %d hits, %d misses; planned %d and %d", hits, misses, w.planned.hits, w.planned.misses)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for seed, got := range w.bodies {
		if w.verified[seed] {
			continue
		}
		w.verified[seed] = true
		want, err := sweepReference(seed)
		if err != nil {
			e.fail("serve: reference for seed %d: %v", seed, err)
		} else if !bytes.Equal(got, want) {
			e.fail("serve: seed %d: stream:false body differs from runner.WriteJSON of a direct run", seed)
		}
	}
}

func (w *serve) close() {
	if w.s != nil {
		w.s.close()
	}
}
