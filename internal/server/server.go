package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"context"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// Config sizes the serving mechanisms. The zero value is usable: every
// field falls back to the default named on it.
type Config struct {
	// Workers is the simulation pool size (default GOMAXPROCS).
	Workers int
	// MaxQueuedJobs bounds the global backlog of admitted-but-unstarted
	// jobs; submissions beyond it get 429 (default 4096).
	MaxQueuedJobs int
	// MaxClientBacklog bounds one client's queued+running jobs — the
	// fairness cap that keeps a single client from filling the whole
	// queue (default 1024).
	MaxClientBacklog int
	// MaxJobsPerRequest bounds one sweep's grid size; larger requests get
	// 413 (default 1024).
	MaxJobsPerRequest int
	// CacheEntries bounds the result cache (default 8192).
	CacheEntries int
	// RequestTimeout bounds how long one sweep request may wait for its
	// jobs (default 120s); requests can ask for less via timeout_sec but
	// never more.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = 4096
	}
	if c.MaxClientBacklog <= 0 {
		c.MaxClientBacklog = 1024
	}
	if c.MaxJobsPerRequest <= 0 {
		c.MaxJobsPerRequest = 1024
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 8192
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	return c
}

// Server is the sweep service. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg      Config
	cache    *resultCache
	sched    *scheduler
	mux      *http.ServeMux
	draining atomic.Bool
	// admitMu serializes the acquire-entries-then-submit phase of sweep
	// requests. It makes admission atomic with respect to cache interest:
	// if a request is rejected and rolls its owned entries back, no other
	// request can have parked on them in between, so a rejected sweep
	// never strands waiters on jobs nobody scheduled.
	admitMu chMutex
}

// chMutex is a channel-based mutex, acquirable under a context so a
// canceled request cannot queue on admission forever.
type chMutex chan struct{}

func (m chMutex) lock(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chMutex) unlock() { <-m }

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		admitMu: make(chMutex, 1),
	}
	s.sched = newScheduler(s.cache, cfg.Workers, cfg.MaxQueuedJobs, cfg.MaxClientBacklog)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new sweeps are refused with 503, every
// admitted job runs to completion, then the worker pool exits. If ctx
// expires first, still-queued jobs are failed and workers stop after
// their current job. Callers should shut the http.Server down afterwards
// so streaming responses finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.sched.shutdown(ctx)
}

// Stats is the /v1/stats payload.
type Stats struct {
	Cache        cacheStats `json:"cache"`
	QueuedJobs   int        `json:"queued_jobs"`
	RunningJobs  int        `json:"running_jobs"`
	ExecutedJobs int64      `json:"executed_jobs"`
	Workers      int        `json:"workers"`
	Draining     bool       `json:"draining"`
}

func (s *Server) statsNow() Stats {
	q, r := s.sched.depth()
	return Stats{
		Cache:        s.cache.stats(),
		QueuedJobs:   q,
		RunningJobs:  r,
		ExecutedJobs: s.sched.executedJobs(),
		Workers:      s.cfg.Workers,
		Draining:     s.draining.Load(),
	}
}

// SweepRequest is the /v1/sweep body: the rcmpsim CLI's sweep grid, with
// specs for -fig/-run and one field per experiments.Dims row, whose json
// key is the row's JSON key, holding a list of values in the flag's
// spelling — except scale, which holds one ("paper", "quick" or "smoke";
// "" = per-spec default). Empty dimensions fall back exactly like
// runner.Grid's. The typed fields are the wire schema: decoding into them
// type-checks a body, and decodeSweep parses each dimension's values
// through its row.
type SweepRequest struct {
	// Specs lists registry keys ("8b", "trace-replay", ...) or "all".
	Specs       []string `json:"specs"`
	Scale       string   `json:"scale,omitempty"`
	Seeds       []int64  `json:"seeds,omitempty"`
	FailureAts  []int    `json:"failure_ats,omitempty"`
	Schedules   []string `json:"schedules,omitempty"`
	Nodes       []int    `json:"nodes,omitempty"`
	Tenants     []int    `json:"tenants,omitempty"`
	Speculation []bool   `json:"speculation,omitempty"`
	Engines     []string `json:"engines,omitempty"`
	// SeedSet expands every seed into that many consecutive seeds and adds
	// mean/CI95 aggregates to the final report (see runner.Grid.SeedSet).
	SeedSet int `json:"seed_set,omitempty"`
	// Stream selects NDJSON streaming (default true). With false the
	// response is one deterministic runner.Report JSON document.
	Stream *bool `json:"stream,omitempty"`
	// TimeoutSec caps this request's wait below the server default.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// dimFields holds, per experiments.Dims row in table order, the index of
// the SweepRequest field whose json key is the row's JSON key.
var dimFields = sweepDimFields()

func sweepDimFields() []int {
	rt := reflect.TypeFor[SweepRequest]()
	var fields []int
	for _, d := range experiments.Dims() {
		field := -1
		for f := range rt.NumField() {
			if key, _, _ := strings.Cut(rt.Field(f).Tag.Get("json"), ","); key == d.JSON {
				field = f
			}
		}
		if field < 0 {
			panic(fmt.Sprintf("server: SweepRequest has no %q field for dimension %s", d.JSON, d.Name))
		}
		fields = append(fields, field)
	}
	return fields
}

// decodeSweep decodes a /v1/sweep body and lowers it onto the runner grid,
// parsing each dimension's values through its row as rcmpsim does.
func decodeSweep(body []byte) (SweepRequest, runner.Grid, error) {
	var req SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, runner.Grid{}, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Specs) == 0 {
		return req, runner.Grid{}, fmt.Errorf("specs is required (registry keys or \"all\")")
	}
	g := runner.Grid{Axes: experiments.Axes{}, SeedSet: req.SeedSet}
	for _, key := range req.Specs {
		k := strings.ToLower(strings.TrimSpace(key))
		if k == "all" {
			g.Specs = experiments.Registry()
			break
		}
		sp, ok := experiments.Lookup(strings.TrimPrefix(k, "fig"))
		if !ok {
			return req, runner.Grid{}, fmt.Errorf("unknown spec %q (see /v1/experiments)", key)
		}
		g.Specs = append(g.Specs, sp)
	}
	rv := reflect.ValueOf(&req).Elem()
	for i, d := range experiments.Dims() {
		vals, err := axisValues(d, rv.Field(dimFields[i]))
		if err != nil {
			return req, runner.Grid{}, err
		}
		g.Axes[d.Name] = vals
	}
	return req, g, g.Validate()
}

// axisValues parses one dimension's request field through its row: each
// element of a list, or a single string (scale), where "" is none. A null
// list element decoded to the zero value, which parses to the dimension's
// zero value.
func axisValues(d experiments.Dim, v reflect.Value) ([]experiments.Config, error) {
	if v.Len() == 0 {
		return nil, nil
	}
	if v.Kind() == reflect.String {
		c, err := d.Parse(v.String())
		if err != nil {
			return nil, err
		}
		return []experiments.Config{c}, nil
	}
	vals := make([]experiments.Config, v.Len())
	for i := range vals {
		var s string
		switch e := v.Index(i); e.Kind() {
		case reflect.String:
			s = e.String()
		case reflect.Bool:
			s = strconv.FormatBool(e.Bool())
		default:
			s = strconv.FormatInt(e.Int(), 10)
		}
		var err error
		if vals[i], err = d.Parse(s); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// clientID identifies the requester for fair scheduling: the X-Client-ID
// header when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type specInfo struct {
		Key  string `json:"key"`
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	var out []specInfo
	for _, sp := range experiments.Registry() {
		out = append(out, specInfo{Key: sp.Key, Name: sp.Name, Desc: sp.Desc})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsNow())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// readPost answers anything but a POST to a live server itself, and
// otherwise returns the request body (at most 1 MiB).
func (s *Server) readPost(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, false
	}
	if s.draining.Load() {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// requestTimeout is the server's request timeout, or a request's shorter
// timeout_sec.
func (s *Server) requestTimeout(sec float64) time.Duration {
	if d := time.Duration(sec * float64(time.Second)); sec > 0 && d < s.cfg.RequestTimeout {
		return d
	}
	return s.cfg.RequestTimeout
}

// admit registers cache interest for every job under its key, then submits
// the misses as one atomic batch. admitMu makes reject-and-roll-back
// invisible to concurrent requests (see its field comment). A rejected
// request gets its error response here, and admit returns nil.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, client string, jobs []runner.Job, key func(runner.Job) string) []jobState {
	if err := s.admitMu.lock(ctx); err != nil {
		http.Error(w, "canceled before admission", http.StatusServiceUnavailable)
		return nil
	}
	states := make([]jobState, len(jobs))
	var owned []schedJob
	for i, j := range jobs {
		e, owner := s.cache.acquire(key(j))
		states[i] = jobState{job: j, e: e, owner: owner}
		if owner {
			owned = append(owned, schedJob{job: j, e: e})
		}
	}
	err := s.sched.submit(client, owned)
	if err != nil {
		for _, st := range states {
			s.cache.release(st.e)
		}
	}
	s.admitMu.unlock()
	switch err {
	case nil:
		return states
	case errDraining:
		http.Error(w, "server draining", http.StatusServiceUnavailable)
	case errQueueFull, errClientBacklog:
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.retryAfterSec()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return nil
}

// jobState tracks one grid job through a request.
type jobState struct {
	job   runner.Job
	e     *entry
	owner bool
}

// Stream events are one JSON object per NDJSON line or SSE data frame:
// "accepted" first, one "result" per job as it completes
// ({"type":"result","index":i,"cache":"hit"|"miss","result":<row>}), an
// "error" if the request timed out, and the final "report". Result and
// report events are composed from the cached rows; the two rare ones are
// encoded from these types.
type acceptedEvent struct {
	Type    string `json:"type"` // "accepted"
	Jobs    int    `json:"jobs"`
	Client  string `json:"client"`
	Timeout string `json:"timeout"`
}

type errorEvent struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// eventWriter frames stream events as NDJSON lines or SSE data frames. It
// does not flush: handleSweep flushes when it is about to wait, so events
// that are ready together are written together, and the handler's return
// flushes the rest. After the first failed write (the client is gone) it
// drops every later event.
type eventWriter struct {
	w       io.Writer
	flusher http.Flusher
	sse     bool
	buf     []byte
	failed  bool
}

// begin returns the frame buffer, emptied and holding the frame prefix;
// the caller appends one event's JSON and passes the result to send.
func (ew *eventWriter) begin() []byte {
	ew.buf = ew.buf[:0]
	if ew.sse {
		ew.buf = append(ew.buf, "data: "...)
	}
	return ew.buf
}

// send terminates the frame begun in b and writes it.
func (ew *eventWriter) send(b []byte) {
	if ew.sse {
		b = append(b, "\n\n"...)
	} else {
		b = append(b, '\n')
	}
	ew.buf = b
	if ew.failed {
		return
	}
	if _, err := ew.w.Write(b); err != nil {
		ew.failed = true
	}
}

// flush sends the events written so far to the client.
func (ew *eventWriter) flush() {
	if ew.flusher != nil && !ew.failed {
		ew.flusher.Flush()
	}
}

// sendJSON encodes v as one event.
func (ew *eventWriter) sendJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// The event types above hold strings and ints only.
		panic(fmt.Sprintf("server: encode %T: %v", v, err))
	}
	ew.send(append(ew.begin(), b...))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readPost(w, r)
	if !ok {
		return
	}
	req, grid, err := decodeSweep(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// decodeSweep requires a spec, so the grid has at least one job.
	if n := grid.Size(); n > s.cfg.MaxJobsPerRequest {
		http.Error(w, fmt.Sprintf("sweep grid of %d jobs exceeds the per-request cap of %d",
			n, s.cfg.MaxJobsPerRequest), http.StatusRequestEntityTooLarge)
		return
	}
	jobs := grid.Jobs()
	timeout := s.requestTimeout(req.TimeoutSec)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	client := clientID(r)
	states := s.admit(ctx, w, client, jobs, func(j runner.Job) string {
		return experiments.ConfigDigest(j.Key, j.Config)
	})
	if states == nil {
		return
	}

	// Past admission: every entry is either scheduled or already
	// in-flight/cached. Release whatever we still hold on the way out
	// (abandoned sole-interest jobs are skipped by the workers).
	released := make([]bool, len(states))
	defer func() {
		for i, st := range states {
			if !released[i] {
				s.cache.release(st.e)
			}
		}
	}()

	stream := req.Stream == nil || *req.Stream
	var ew *eventWriter
	if stream {
		ew = &eventWriter{w: w, sse: strings.Contains(r.Header.Get("Accept"), "text/event-stream")}
		ew.flusher, _ = w.(http.Flusher)
		if ew.sse {
			w.Header().Set("Content-Type", "text/event-stream")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.Header().Set("Cache-Control", "no-store")
		ew.sendJSON(acceptedEvent{Type: "accepted", Jobs: len(jobs), Client: client, Timeout: timeout.String()})
	}

	// Completion fan-in: a complete entry (every job of a cache hit)
	// reports its index at once; one goroutine per other job parks on its
	// entry and reports it. The channel is buffered to len(jobs) so no
	// goroutine can leak blocked on send after a timeout.
	completions := make(chan int, len(states))
	for i := range states {
		select {
		case <-states[i].e.done:
			completions <- i
			continue
		default:
		}
		go func(i int) {
			select {
			case <-states[i].e.done:
				completions <- i
			case <-ctx.Done():
			}
		}(i)
	}

	rows := make([]runner.Row, len(states))
	timedOut := false
	for range states {
		var i int
		select {
		case i = <-completions:
		default:
			// Nothing is ready: send what is written, then wait. Events
			// that are ready together so go out together.
			if stream {
				ew.flush()
			}
			select {
			case i = <-completions:
			case <-ctx.Done():
				timedOut = true
			}
		}
		if timedOut {
			break
		}
		rows[i] = runner.Row{Name: states[i].job.Name, JSON: states[i].e.row}
		s.cache.release(states[i].e)
		released[i] = true
		if stream {
			// A client that is gone stops the writes, not the loop:
			// admitted jobs still land in the cache.
			b := append(ew.begin(), `{"type":"result","index":`...)
			b = strconv.AppendInt(b, int64(i), 10)
			if states[i].owner {
				b = append(b, `,"cache":"miss","result":`...)
			} else {
				b = append(b, `,"cache":"hit","result":`...)
			}
			b = append(b, rows[i].JSON...)
			ew.send(append(b, '}'))
		}
	}

	for i, st := range states {
		if !released[i] {
			rows[i] = runner.Row{Name: st.job.Name, JSON: runner.EncodeRow(runner.Result{
				Name:   st.job.Name,
				Config: st.job.Config,
				Err:    "server: request timed out before the job completed",
			}, false)}
		}
	}

	if stream {
		if timedOut {
			ew.sendJSON(errorEvent{Type: "error", Error: "request timed out; unfinished jobs reported as errors"})
		}
		b, err := runner.AppendReport(append(ew.begin(), `{"type":"report","report":`...), rows)
		if err != nil {
			ew.sendJSON(errorEvent{Type: "error", Error: err.Error()})
			return
		}
		ew.send(append(b, '}'))
		return
	}
	status := http.StatusOK
	if timedOut {
		status = http.StatusGatewayTimeout
	}
	// The non-streaming body is exactly the deterministic runner report —
	// byte-identical to `rcmpsim -json` over the same grid.
	compact, err := runner.AppendReport(nil, rows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(runner.IndentReport(compact))
}
