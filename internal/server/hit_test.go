package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// runnerReport is the runner's own JSON report of results: what a
// stream:false body must equal.
func runnerReport(t *testing.T, results []runner.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := runner.WriteJSON(&buf, results, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hitShapes are the request shapes the hit-versus-miss pin covers: plain
// grids, seed lists and a repeated spec that aggregate, an analytic seed
// set, an out-of-range failure position (an error row) and a schedule.
var hitShapes = []string{
	`{"specs":["8b","9"],"scale":"quick"}`,
	`{"specs":["8b"],"scale":"quick","seeds":[1,2,3]}`,
	`{"specs":["9"],"scale":"quick","seed_set":3,"engines":["analytic"]}`,
	`{"specs":["8b"],"scale":"quick","failure_ats":[2,99]}`,
	`{"specs":["8b","8b"],"scale":"smoke"}`,
	`{"specs":["12"],"scale":"quick","schedules":["stic:1","2@15,4@5x2"]}`,
	`{"specs":["dag-recovery","double-failure"],"scale":"quick","seeds":[4],"nodes":[16,99999]}`,
}

// streamLines splits a stream body into its events with the cache field
// spelled "hit" and sorts them: result events arrive in completion order,
// and a hit and the miss that filled its entry differ in that field only.
func streamLines(body []byte) []string {
	lines := strings.SplitAfter(string(body), "\n")
	for i, l := range lines {
		lines[i] = strings.Replace(l, `"cache":"miss"`, `"cache":"hit"`, 1)
	}
	slices.Sort(lines)
	return lines
}

// TestHitBodiesMatchMiss pins the cache's reply bytes: for every request
// shape and every reply form (NDJSON, SSE, stream:false), a fully cached
// repeat answers exactly what the request that filled the cache answered,
// up to the cache field of its result events; and /v1/plan's cached answer
// equals its first one up to its cache field.
func TestHitBodiesMatchMiss(t *testing.T) {
	forms := []struct {
		name   string
		stream string
		accept string
	}{
		{"ndjson", "", ""},
		{"sse", "", "text/event-stream"},
		{"report", `,"stream":false`, ""},
	}
	for _, shape := range hitShapes {
		for _, f := range forms {
			t.Run(f.name+" "+shape, func(t *testing.T) {
				s, ts := testServer(t, Config{Workers: 2})
				body := shape[:len(shape)-1] + f.stream + "}"
				headers := map[string]string{"X-Client-ID": "pin"}
				if f.accept != "" {
					headers["Accept"] = f.accept
				}
				resp, miss := postSweep(t, ts.URL, body, headers)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("miss: %d %s", resp.StatusCode, miss)
				}
				executed := s.statsNow().ExecutedJobs
				resp, hit := postSweep(t, ts.URL, body, headers)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("hit: %d %s", resp.StatusCode, hit)
				}
				if got := s.statsNow().ExecutedJobs; got != executed {
					t.Fatalf("the repeat ran %d jobs", got-executed)
				}
				if f.stream != "" {
					if !bytes.Equal(hit, miss) {
						t.Fatalf("cached report differs from the miss:\n%s\n----\n%s", hit, miss)
					}
					return
				}
				if !bytes.Contains(hit, []byte(`"cache":"hit"`)) || bytes.Contains(hit, []byte(`"cache":"miss"`)) {
					t.Fatalf("repeat not served from the cache:\n%s", hit)
				}
				if !slices.Equal(streamLines(hit), streamLines(miss)) {
					t.Fatalf("cached stream differs from the miss:\n%s\n----\n%s", hit, miss)
				}
			})
		}
	}

	_, ts := testServer(t, Config{Workers: 2})
	for _, body := range []string{
		`{"nodes":131072,"tenants":4,"deadline_sec":700}`,
		`{"nodes":4096,"seed":3}`,
		`{"nodes":2000000}`,
	} {
		resp, miss := postPlan(t, ts.URL, body)
		resp2, hit := postPlan(t, ts.URL, body)
		if resp2.StatusCode != resp.StatusCode {
			t.Fatalf("plan %s: status %d then %d", body, resp.StatusCode, resp2.StatusCode)
		}
		want := bytes.Replace(miss, []byte(`"cache": "miss"`), []byte(`"cache": "hit"`), 1)
		if bytes.Equal(want, miss) || !bytes.Equal(hit, want) {
			t.Fatalf("plan %s: cached answer differs from the miss:\n%s\n----\n%s", body, hit, miss)
		}
	}
}

// hitBody is a request of bench/'s serve_hit shape: four quick-scale DES
// jobs of one seed.
const hitBody = `{"specs":["8b","9","dag-recovery","double-failure"],"scale":"quick","seeds":[0]`

// discardWriter is a ResponseWriter and Flusher that keeps nothing but
// the status, the body length and the number of flushes, so a measurement
// counts the handler's work and not the recorder's.
type discardWriter struct {
	header  http.Header
	status  int
	n       int
	flushes int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }
func (d *discardWriter) Flush()                      { d.flushes++ }

// cachedSweep returns a server whose cache holds every job of hitBody and
// a function that serves one fully cached request of the given form
// through Handler().ServeHTTP, failing tb on anything but a 200 with a
// body, and returns its writer. accept is the request's Accept header.
func cachedSweep(tb testing.TB, stream bool, accept string) func() *discardWriter {
	tb.Helper()
	s := New(Config{Workers: 2})
	tb.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	body := []byte(hitBody + fmt.Sprintf(`,"stream":%t}`, stream))
	h := s.Handler()
	serve := func() *discardWriter {
		w := &discardWriter{header: http.Header{}}
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		h.ServeHTTP(w, r)
		if w.status != 0 && w.status != http.StatusOK || w.n == 0 {
			tb.Fatalf("cached sweep: status %d, %d body bytes", w.status, w.n)
		}
		return w
	}
	serve() // fills the cache
	if st := s.statsNow(); st.ExecutedJobs != 4 {
		tb.Fatalf("fill ran %d jobs, want 4", st.ExecutedJobs)
	}
	return serve
}

// TestSweepHitAllocs bounds the allocations of one fully cached 4-job
// sweep through Handler().ServeHTTP, streamed and stream:false: a hit
// copies cached rows into the reply, so it must not grow back the
// per-hit encoding the cache exists to avoid. The ceilings sit a little
// above the measured counts (docs/perf.md, "Cache hits served from
// encoded rows").
func TestSweepHitAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	for _, c := range []struct {
		name    string
		stream  bool
		ceiling float64
	}{
		{"stream", true, 123},
		{"report", false, 119},
	} {
		t.Run(c.name, func(t *testing.T) {
			serve := cachedSweep(t, c.stream, "")
			if got := testing.AllocsPerRun(50, func() { serve() }); got > c.ceiling {
				t.Fatalf("%v allocs per cached request, ceiling %v", got, c.ceiling)
			} else {
				t.Logf("%v allocs per cached request", got)
			}
		})
	}
}

// TestCachedSweepFlushesOnce pins the writes of a fully cached streamed
// sweep: every event is ready at once, so the handler flushes at most once
// (the server's own flush at the handler's return comes on top), as NDJSON
// and as SSE. A flush per event was six for this sweep.
func TestCachedSweepFlushesOnce(t *testing.T) {
	for _, accept := range []string{"", "text/event-stream"} {
		serve := cachedSweep(t, true, accept)
		if w := serve(); w.flushes > 1 {
			t.Errorf("Accept %q: %d flushes for a fully cached sweep, want at most 1", accept, w.flushes)
		}
	}
}

// flushRecorder is a ResponseWriter and Flusher that keeps the body and
// hands a copy of it to flushed at every flush. Each copy holds the whole
// body so far, so a flush that finds the channel full loses nothing the
// next copy does not carry; the tests size it above the flushes they
// expect.
type flushRecorder struct {
	header  http.Header
	mu      sync.Mutex
	body    []byte
	flushed chan []byte
}

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}
func (f *flushRecorder) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.body = append(f.body, b...)
	return len(b), nil
}
func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case f.flushed <- slices.Clone(f.body):
	default:
	}
}

// TestReadyEventsPrecedeRunningJob requires a stream to deliver what is
// ready before it waits: with four of five jobs cached and the fifth still
// running, the accepted event and the four hits' result events reach the
// client before the fifth job completes, as NDJSON and as SSE.
func TestReadyEventsPrecedeRunningJob(t *testing.T) {
	for _, accept := range []string{"", "text/event-stream"} {
		t.Run("accept="+accept, func(t *testing.T) {
			s := New(Config{Workers: 2})
			t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
			h := s.Handler()
			fill := &discardWriter{header: http.Header{}}
			h.ServeHTTP(fill, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(hitBody+"}")))
			body := `{"specs":["8b","9","dag-recovery","double-failure","cost"],"scale":"quick","seeds":[0]}`
			_, g, err := decodeSweep([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			// The test owns the fifth job's entry and schedules nothing, so
			// the job runs until the test fulfills it.
			last := g.Jobs()[4]
			e, owner := s.cache.acquire(experiments.ConfigDigest(last.Key, last.Config))
			if !owner {
				t.Fatal("the fifth job is already cached")
			}
			defer s.cache.release(e)

			w := &flushRecorder{header: http.Header{}, flushed: make(chan []byte, 16)}
			r := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
			if accept != "" {
				r.Header.Set("Accept", accept)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.ServeHTTP(w, r)
			}()
			timeout := time.After(10 * time.Second)
			for delivered := false; !delivered; {
				select {
				case sent := <-w.flushed:
					if bytes.Contains(sent, []byte(`"index":4`)) || bytes.Contains(sent, []byte(`"type":"report"`)) {
						t.Fatalf("the fifth job was reported before it completed:\n%s", sent)
					}
					delivered = bytes.Contains(sent, []byte(`"type":"accepted"`)) && bytes.Count(sent, []byte(`"cache":"hit"`)) == 4
				case <-timeout:
					t.Fatal("the accepted event and the four hits were not flushed while the fifth job ran")
				}
			}
			if !s.cache.markStarted(e) {
				t.Fatal("the fifth job's entry died")
			}
			s.cache.fulfill(e, runner.Result{Name: last.Name, Config: last.Config, Err: "completed by the test"})
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the stream did not finish after the fifth job completed")
			}
			w.mu.Lock()
			defer w.mu.Unlock()
			if !bytes.Contains(w.body, []byte(`"index":4`)) || !bytes.Contains(w.body, []byte(`"type":"report"`)) {
				t.Fatalf("the stream lacks the fifth result or the report:\n%s", w.body)
			}
		})
	}
}

// BenchmarkSweepHit serves the fully cached 4-job sweep through
// Handler().ServeHTTP, streamed and stream:false: the handler half of
// bench/'s serve_hit workload, without the loopback socket. `make
// profile-serve` profiles it.
func BenchmarkSweepHit(b *testing.B) {
	for _, c := range []struct {
		name   string
		stream bool
	}{{"stream", true}, {"report", false}} {
		b.Run(c.name, func(b *testing.B) {
			serve := cachedSweep(b, c.stream, "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
