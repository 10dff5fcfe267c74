package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// ---- HTTP surface ----

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postSweep(t *testing.T, url string, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSweepCachedRepeatByteIdentical is the cache-soundness acceptance
// check: the same request served cold and then out of the cache returns
// byte-identical payloads, with the repeat recorded as hits and running no
// new simulations.
func TestSweepCachedRepeatByteIdentical(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	body := `{"specs":["cost"],"scale":"quick","seeds":[0,1],"stream":false}`

	resp1, b1 := postSweep(t, ts.URL, body, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, b1)
	}
	st := s.statsNow()
	if st.Cache.Misses != 2 || st.Cache.Hits != 0 {
		t.Fatalf("cold stats: %+v", st.Cache)
	}
	executed := st.ExecutedJobs

	resp2, b2 := postSweep(t, ts.URL, body, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp2.StatusCode, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached repeat not byte-identical:\n%s\n----\n%s", b1, b2)
	}
	st = s.statsNow()
	if st.Cache.Hits != 2 {
		t.Fatalf("repeat did not hit the cache: %+v", st.Cache)
	}
	if st.ExecutedJobs != executed {
		t.Fatalf("repeat re-ran simulations: %d -> %d", executed, st.ExecutedJobs)
	}
}

// TestSweepDigestDimensions: changing any one grid dimension misses the
// cache; repeating the original still hits.
func TestSweepDigestDimensions(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	base := `{"specs":["cost"],"scale":"quick","seeds":[3],"stream":false}`
	if resp, b := postSweep(t, ts.URL, base, nil); resp.StatusCode != 200 {
		t.Fatalf("base: %d %s", resp.StatusCode, b)
	}
	variants := []string{
		`{"specs":["2"],"scale":"quick","seeds":[3],"stream":false}`,                 // spec
		`{"specs":["cost"],"scale":"paper","seeds":[3],"stream":false}`,              // scale
		`{"specs":["cost"],"scale":"quick","seeds":[4],"stream":false}`,              // seed
		`{"specs":["cost"],"scale":"quick","seeds":[3],"nodes":[16],"stream":false}`, // nodes
	}
	misses := s.statsNow().Cache.Misses
	for _, v := range variants {
		if resp, b := postSweep(t, ts.URL, v, nil); resp.StatusCode != 200 {
			t.Fatalf("variant %s: %d %s", v, resp.StatusCode, b)
		}
		st := s.statsNow()
		if st.Cache.Misses != misses+1 {
			t.Fatalf("variant %s did not miss (misses %d -> %d)", v, misses, st.Cache.Misses)
		}
		misses = st.Cache.Misses
	}
	hits := s.statsNow().Cache.Hits
	if resp, _ := postSweep(t, ts.URL, base, nil); resp.StatusCode != 200 {
		t.Fatal("base repeat failed")
	}
	if st := s.statsNow(); st.Cache.Hits != hits+1 {
		t.Fatalf("base repeat did not hit: %+v", st.Cache)
	}
}

// TestSweepStreamNDJSON exercises the streaming path: an accepted line,
// one result line per job in completion order with cache attribution, and
// a final report in input order.
func TestSweepStreamNDJSON(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	body := `{"specs":["cost","2"],"scale":"quick"}`
	resp, raw := postSweep(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	var results int
	var report runner.Report
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		var typ string
		_ = json.Unmarshal(ev["type"], &typ)
		types = append(types, typ)
		switch typ {
		case "result":
			results++
			var kind string
			_ = json.Unmarshal(ev["cache"], &kind)
			if kind != "hit" && kind != "miss" {
				t.Fatalf("result line cache = %q", kind)
			}
		case "report":
			var re struct {
				Report runner.Report `json:"report"`
			}
			if err := json.Unmarshal(sc.Bytes(), &re); err != nil {
				t.Fatal(err)
			}
			report = re.Report
		}
	}
	if types[0] != "accepted" || types[len(types)-1] != "report" {
		t.Fatalf("event order %v", types)
	}
	if results != 2 || len(report.Results) != 2 {
		t.Fatalf("results streamed %d, report %d, want 2", results, len(report.Results))
	}
	// Input order in the final report: specs were ["cost","2"].
	if !strings.HasPrefix(report.Results[0].Name, "CostModels") || !strings.HasPrefix(report.Results[1].Name, "Fig2") {
		t.Fatalf("report order %q, %q", report.Results[0].Name, report.Results[1].Name)
	}
	for _, rr := range report.Results {
		if rr.Error != "" {
			t.Fatalf("job %s errored: %s", rr.Name, rr.Error)
		}
	}
}

// TestSweepSSE: the same stream framed as server-sent events.
func TestSweepSSE(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	resp, raw := postSweep(t, ts.URL, `{"specs":["cost"],"scale":"quick"}`,
		map[string]string{"Accept": "text/event-stream"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !bytes.HasPrefix(raw, []byte("data: {")) || !bytes.Contains(raw, []byte(`"type":"report"`)) {
		t.Fatalf("not SSE-framed: %s", raw)
	}
}

// TestSweepMatchesCLIReport: the non-streaming response body is exactly
// the deterministic runner report the CLI would emit for the same grid.
func TestSweepMatchesCLIReport(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	resp, body := postSweep(t, ts.URL, `{"specs":["cost"],"scale":"quick","seeds":[7],"stream":false}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, body)
	}
	sp, ok := experiments.Lookup("cost")
	if !ok {
		t.Fatal("no cost spec")
	}
	jobs := runner.Grid{
		Specs:  []experiments.Spec{sp},
		Scales: []experiments.Scale{experiments.ScaleQuick},
		Seeds:  []int64{7},
	}.Jobs()
	pool := runner.Runner{Workers: 1}
	want := runnerReport(t, pool.Run(jobs))
	if !bytes.Equal(bytes.TrimRight(body, "\n"), bytes.TrimRight(want, "\n")) {
		t.Fatalf("server report diverges from CLI report:\n%s\n----\n%s", body, want)
	}
}

// TestSingleFlightConcurrentIdentical: many concurrent identical requests
// run the simulation exactly once.
func TestSingleFlightConcurrentIdentical(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	const clients = 16
	body := `{"specs":["cost"],"scale":"quick","seeds":[42],"stream":false}`
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			req.Header.Set("X-Client-ID", fmt.Sprintf("client-%d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
	if st := s.statsNow(); st.ExecutedJobs != 1 {
		t.Fatalf("single-flight ran %d simulations, want 1", st.ExecutedJobs)
	}
}

// TestAdmissionBackpressure: a sweep that cannot fit the global queue is
// refused with 429 and a Retry-After hint, atomically (nothing admitted).
func TestAdmissionBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, MaxQueuedJobs: 1, MaxJobsPerRequest: 64})
	resp, body := postSweep(t, ts.URL, `{"specs":["cost"],"scale":"quick","seeds":[0,1,2],"stream":false}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if q, r := s.sched.depth(); q != 0 || r != 0 {
		t.Fatalf("rejected sweep left work behind: queued=%d running=%d", q, r)
	}
	if st := s.statsNow(); st.Cache.Size != 0 {
		t.Fatalf("rejected sweep left cache entries: %+v", st.Cache)
	}
	// A sweep that fits still succeeds afterwards — rollback stranded nothing.
	resp, body = postSweep(t, ts.URL, `{"specs":["cost"],"scale":"quick","stream":false}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up sweep: %d %s", resp.StatusCode, body)
	}
}

// TestPerClientBacklogCap: one client cannot occupy the queue beyond its
// lane cap, while another client still gets in.
func TestPerClientBacklogCap(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxClientBacklog: 2, MaxJobsPerRequest: 64})
	hog := map[string]string{"X-Client-ID": "hog"}
	resp, body := postSweep(t, ts.URL, `{"specs":["cost"],"scale":"quick","seeds":[10,11,12],"stream":false}`, hog)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap sweep: %d %s", resp.StatusCode, body)
	}
	resp, body = postSweep(t, ts.URL, `{"specs":["cost"],"scale":"quick","seeds":[13],"stream":false}`,
		map[string]string{"X-Client-ID": "small"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small client rejected: %d %s", resp.StatusCode, body)
	}
}

// TestBadRequests: malformed sweeps are 4xx, not 5xx or hangs.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxJobsPerRequest: 4})
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"specs":["nope"]}`, http.StatusBadRequest},
		{`{"specs":["cost"],"scale":"huge"}`, http.StatusBadRequest},
		{`{"specs":["cost"],"schedules":["bogus@@"]}`, http.StatusBadRequest},
		{`{"specs":["cost"],"scale":"quick","seeds":[0,1,2,3,4]}`, http.StatusRequestEntityTooLarge},
		{`{"specs":["cost"],"seed_set":-3}`, http.StatusBadRequest},
		{`{"specs":["cost"],"seed_set":1025}`, http.StatusBadRequest},
		{`{"specs":["cost"],"engines":["gpu"]}`, http.StatusBadRequest},
		{`{"specs":["cost"],"scale":"quick","engines":[" DES "],"stream":false}`, http.StatusOK},
	}
	for _, tc := range cases {
		resp, body := postSweep(t, ts.URL, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s -> %d (%s), want %d", tc.body, resp.StatusCode, body, tc.want)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/sweep"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/sweep -> %d, want 405", resp.StatusCode)
		}
	}
}

// TestGracefulShutdownDrains: Shutdown refuses new sweeps but completes
// admitted jobs before returning.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan []byte, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep",
			strings.NewReader(`{"specs":["cost","2"],"scale":"quick","stream":false}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- b
	}()
	// Let the request reach admission before draining.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp, _ := postSweep(t, ts.URL, `{"specs":["cost"],"scale":"quick"}`, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown sweep status %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz during drain: %d", resp.StatusCode)
		}
	}
	select {
	case b := <-done:
		var rep runner.Report
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatalf("in-flight request corrupted by shutdown: %v (%s)", err, b)
		}
		for _, rr := range rep.Results {
			if rr.Error != "" {
				t.Fatalf("in-flight job failed during drain: %s", rr.Error)
			}
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

// TestStatsAndExperimentsEndpoints sanity-checks the read-only surface.
func TestStatsAndExperimentsEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var specs []map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&specs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(specs) != len(experiments.Registry()) {
		t.Fatalf("experiments listed %d, want %d", len(specs), len(experiments.Registry()))
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Workers != 1 {
		t.Fatalf("stats workers %d", st.Workers)
	}
}
