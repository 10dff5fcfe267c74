package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"rcmp/bench/stats"
)

// recorder is the harness's own span recorder: a span around every call the
// harness makes into a layer of the program. Spans stay in memory and are
// written once, when the run ends. A nil *recorder records nothing, which is
// the untraced run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name string
	// Op ties the spans of one operation together; Lane is the client or
	// goroutine the call ran on (the Chrome-trace thread).
	Op, Lane int
	stats.Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used as
// the parent of nested spans. parent is -1 for a root span.
func (r *recorder) begin(name string, parent, op, lane int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Lane: lane,
		Span: stats.Span{Start: time.Since(r.t0), Parent: parent}})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an interval measured elsewhere (a dmr Driver.RunLog entry).
func (r *recorder) add(name string, parent, op, lane int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Lane: lane,
		Span: stats.Span{Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: parent}})
}

// selfByName sums span duration and self time per span name.
func (r *recorder) selfByName() (names []string, total, self map[string]time.Duration, count map[string]int) {
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	plain := make([]stats.Span, len(r.spans))
	for i, s := range r.spans {
		plain[i] = s.Span
	}
	for i, st := range stats.SelfTimes(plain) {
		s := r.spans[i]
		total[s.Name] += s.End - s.Start
		self[s.Name] += st
		count[s.Name]++
	}
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	return names, total, self, count
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): one complete event per span, one thread per lane.
func (r *recorder) writeChrome(dir, name string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.Op, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := writeFile(dir, name, b); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
