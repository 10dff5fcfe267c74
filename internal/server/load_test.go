package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// TestSweepUnderConcurrentLoad holds the serving guarantees under load:
// 200 concurrent sweeps over 16 small grids, sent from four client lanes
// to a one-worker server with a two-job queue. A gate job holds the
// worker until the first 429, so refusals happen on every run; each is
// retried until it completes. Every streamed job is reported exactly once,
// every deterministic body of a grid is byte-identical (and equal to a
// direct runner report), /v1/stats accounts for every attempt and
// simulates each distinct job once, and a repeat of the whole mix is
// served from the cache.
func TestSweepUnderConcurrentLoad(t *testing.T) {
	const (
		requests = 200
		grids    = 16
		lanes    = 4
		jobs     = 2 // seeds per grid
	)
	s, ts := testServer(t, Config{Workers: 1, MaxQueuedJobs: 2})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: requests}}
	t.Cleanup(client.CloseIdleConnections)

	// The gate job occupies the worker until the first 429; it is one more
	// simulated job, cache entry and miss in the counts below.
	gate := make(chan struct{})
	var openGate sync.Once
	t.Cleanup(func() { openGate.Do(func() { close(gate) }) }) // before Shutdown
	gateJob := syntheticJob("gate", 1, func(experiments.Config) (*experiments.Result, error) {
		<-gate
		return &experiments.Result{Name: "gate"}, nil
	})
	e, _ := s.cache.acquire(gateJob.Key)
	if err := s.sched.submit("gate", []schedJob{{job: gateJob, e: e}}); err != nil {
		t.Fatal(err)
	}
	for q, r := s.sched.depth(); q != 0 || r != 1; q, r = s.sched.depth() {
		time.Sleep(time.Millisecond)
	}

	var attempts, rejected atomic.Int64
	var mu sync.Mutex
	bodies := map[int][]byte{} // odd grid -> its first deterministic body

	post := func(i int) error {
		grid := i % grids
		stream := grid%2 == 0
		body := fmt.Sprintf(`{"specs":["cost"],"scale":"quick","seeds":[%d,%d],"stream":%t}`,
			jobs*grid, jobs*grid+1, stream)
		for try := 0; try < 5000; try++ {
			attempts.Add(1)
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set("X-Client-ID", fmt.Sprintf("lane-%d", i/grids%lanes))
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
				return err
			case resp.StatusCode == http.StatusTooManyRequests:
				rejected.Add(1)
				openGate.Do(func() { close(gate) })
				time.Sleep(time.Millisecond)
				continue
			case resp.StatusCode != http.StatusOK:
				return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			case stream:
				return checkStream(raw, jobs)
			}
			mu.Lock()
			defer mu.Unlock()
			if first, ok := bodies[grid]; ok && !bytes.Equal(first, raw) {
				return fmt.Errorf("grid %d: body differs from its first reply:\n%s\n----\n%s", grid, raw, first)
			}
			bodies[grid] = raw
			return nil
		}
		return fmt.Errorf("grid %d: still 429 after 5000 attempts", grid)
	}
	phase := func() Stats {
		start := make(chan struct{})
		errs := make(chan error, requests)
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				if err := post(i); err != nil {
					errs <- fmt.Errorf("request %d: %w", i, err)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
		return quiescentStats(t, client, ts.URL)
	}

	cold := phase()
	t.Logf("cold phase: %d attempts, %d refused with 429", attempts.Load(), rejected.Load())
	if cold.ExecutedJobs != grids*jobs+1 || cold.Cache.Size != grids*jobs+1 || cold.Cache.Evicted != 0 {
		t.Fatalf("cold phase simulated %d jobs into %d entries (%d evicted), want each of %d once",
			cold.ExecutedJobs, cold.Cache.Size, cold.Cache.Evicted, grids*jobs+1)
	}
	if got := cold.Cache.Hits + cold.Cache.Misses; got != jobs*attempts.Load()+1 {
		t.Fatalf("cache saw %d lookups for %d attempts of %d jobs", got, attempts.Load(), jobs)
	}

	attempts.Store(0)
	repeat := phase()
	hits, misses := repeat.Cache.Hits-cold.Cache.Hits, repeat.Cache.Misses-cold.Cache.Misses
	if hits+misses != jobs*attempts.Load() {
		t.Fatalf("repeat: cache saw %d lookups for %d attempts", hits+misses, attempts.Load())
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("repeat phase hit rate %.3f, want >= 0.9", rate)
	}
	if repeat.ExecutedJobs != cold.ExecutedJobs {
		t.Fatalf("repeat phase re-simulated: %d -> %d jobs", cold.ExecutedJobs, repeat.ExecutedJobs)
	}

	pool := runner.Runner{Workers: 1}
	for grid, body := range bodies {
		req, _ := json.Marshal(SweepRequest{Specs: []string{"cost"}, Scale: "quick", Seeds: []int64{int64(jobs * grid), int64(jobs*grid + 1)}})
		_, g, err := decodeSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runner.MarshalJSONDeterministic(pool.Run(g.Jobs()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimRight(body, "\n"), bytes.TrimRight(want, "\n")) {
			t.Fatalf("grid %d: served body differs from a direct runner report", grid)
		}
	}
}

// checkStream verifies an NDJSON sweep reply: every job index reported
// exactly once, then a final report of n error-free rows.
func checkStream(raw []byte, n int) error {
	seen := map[int]bool{}
	rows := -1
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var ev struct {
			Type   string        `json:"type"`
			Index  int           `json:"index"`
			Error  string        `json:"error"`
			Report runner.Report `json:"report"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("bad stream line %.100q: %v", line, err)
		}
		switch ev.Type {
		case "result":
			if seen[ev.Index] || ev.Index < 0 || ev.Index >= n {
				return fmt.Errorf("job index %d reported twice or out of range", ev.Index)
			}
			seen[ev.Index] = true
		case "report":
			rows = len(ev.Report.Results)
			for _, r := range ev.Report.Results {
				if r.Error != "" {
					return fmt.Errorf("job %s: %s", r.Name, r.Error)
				}
			}
		case "error":
			return fmt.Errorf("stream error: %s", ev.Error)
		}
	}
	if len(seen) != n || rows != n {
		return fmt.Errorf("%d of %d jobs streamed, final report has %d rows", len(seen), n, rows)
	}
	return nil
}

// quiescentStats reads /v1/stats once nothing is queued or running. A
// worker settles its counters just after it wakes the job's waiters, so a
// reply can reach the client a moment before the last job is accounted.
func quiescentStats(t *testing.T, client *http.Client, url string) Stats {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.QueuedJobs == 0 && st.RunningJobs == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never went idle: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
