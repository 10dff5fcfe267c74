package dmr

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"rcmp/internal/dfs"
	"rcmp/internal/middleware"
	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// recordServer serves the record messages over a wire connection: a
// FetchMapOutReq gets batches[Reducer] back, and a PutBlockReq is echoed as
// a FetchBlockResp, so both bulk requests and bulk replies cross it.
func recordServer(t *testing.T, chaos *wire.Chaos, batches []RecordBatch) *wire.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if chaos != nil {
		ln = chaos.WrapListener(ln, "srv")
	}
	s := wire.NewServer(ln, func(_ net.Addr, req any) (any, error) {
		switch r := req.(type) {
		case FetchMapOutReq:
			b := batches[r.Reducer]
			return FetchMapOutResp{Records: b, Counts: []int{len(b)}}, nil
		case PutBlockReq:
			return FetchBlockResp{Records: r.Records}, nil
		}
		return nil, fmt.Errorf("unexpected %T", req)
	})
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRecordMessagesOverWire sends each record message across a real
// connection: the batch comes back record for record, a nil batch stays
// nil and an empty one empty (as through gob), the other fields survive,
// and every received value is a capped window, so appending to one cannot
// reach the next.
func TestRecordMessagesOverWire(t *testing.T) {
	rows := RecordBatch(workload.Generate(40, 3))
	rows[5].Value = nil // a zero-length value arrives nil
	s := recordServer(t, nil, []RecordBatch{rows, nil, {}})
	cl, err := wire.Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for red, want := range []FetchMapOutResp{
		{Records: rows, Counts: []int{40}},
		{Counts: []int{0}},
		{Records: RecordBatch{}, Counts: []int{0}},
	} {
		resp, err := cl.Call(FetchMapOutReq{Reducer: red}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp, want) {
			t.Fatalf("reducer %d: reply %+v, want %+v", red, resp, want)
		}
	}
	resp, err := cl.Call(PutBlockReq{File: "f", Part: 1, Block: 2, Records: rows}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.(FetchBlockResp).Records
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("a PutBlockReq's records did not survive the round trip")
	}
	before := append(RecordBatch(nil), got...)
	for i := range before {
		before[i].Value = append([]byte(nil), got[i].Value...)
	}
	for _, r := range got {
		_ = append(r.Value, 0xee, 0xee, 0xee)
	}
	if !reflect.DeepEqual(got, before) {
		t.Fatal("appending to one received value overwrote its neighbour")
	}
}

// fetchRoundTripSlack is what a 750-record FetchMapOutResp round trip may
// allocate beyond its frame: the 750 decoded record headers (24 000 bytes,
// 24 576 in their size class) and the call's control allocations
// (envelopes, the request, the timer, the handler goroutine), about 2 KB.
const fetchRoundTripSlack = 32 << 10

// TestFetchMapOutRoundTripBytes pins what one shuffle reply costs to cross
// a wire connection: the receiver's one buffer for the frame, the record
// headers, and nothing per record byte besides. The reply has the
// BenchmarkDMRChain shape, one reducer's share of one worker's map outputs.
// Sent through gob inside the envelope (the encoder's frame, gob's read
// buffer and the decoder's value copy), the same round trip allocated
// 279 694 bytes, 3.4 times the frame.
func TestFetchMapOutRoundTripBytes(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	rows := RecordBatch(workload.Generate(750, 1))
	frame := rows.frameSize()
	s := recordServer(t, nil, []RecordBatch{rows})
	cl, err := wire.Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	call := func() {
		if _, err := cl.Call(FetchMapOutReq{Reducer: 0}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ { // gob's type definitions, the send buffers
		call()
	}
	// The collector is held off so a collection cannot empty a sync.Pool
	// mid-measurement. The least of three rounds sheds allocations the
	// runtime makes for itself in the background; every round makes the
	// same calls, so a regression in them shows in all three.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 20
	best := uint64(1 << 62)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	if limit := uint64(frame + fetchRoundTripSlack); best > limit {
		t.Fatalf("a %d-byte frame allocated %d bytes a round trip, limit %d", frame, best, limit)
	}
	t.Logf("a %d-byte frame allocated %d bytes a round trip (%.2f times)", frame, best, float64(best)/float64(frame))
}

// TestDroppedBulkWritesNeverCorruptRecords sends bulk requests and bulk
// replies through a transport that drops a third of all writes. Every
// call must end in the exact records or in a transport error (a timeout,
// or a connection broken by a lost type definition), never in a wrong
// record: an envelope and its section are one write, so they are lost
// together.
func TestDroppedBulkWritesNeverCorruptRecords(t *testing.T) {
	chaos := &wire.Chaos{Seed: 11, DropProb: 0.3}
	batches := []RecordBatch{
		workload.Generate(120, 1),
		workload.Generate(7, 2),
		workload.Generate(300, 3),
	}
	s := recordServer(t, chaos, batches)
	pool := wire.NewPoolOpts(time.Second, wire.PoolOptions{Chaos: chaos, Self: "cli"})
	defer pool.Close()

	var ok, failed int
	for i := 0; i < 60; i++ {
		red := i % len(batches)
		var req any = FetchMapOutReq{Reducer: red}
		want := any(FetchMapOutResp{Records: batches[red], Counts: []int{len(batches[red])}})
		if i%2 == 1 {
			req = PutBlockReq{File: "f", Block: i, Records: batches[red]}
			want = FetchBlockResp{Records: batches[red]}
		}
		resp, err := pool.Call(s.Addr(), req, 50*time.Millisecond)
		if err != nil {
			if !wire.IsTransportError(err) {
				t.Fatalf("call %d: %v is not a transport error", i, err)
			}
			failed++
			continue
		}
		if !reflect.DeepEqual(resp, want) {
			t.Fatalf("call %d: a wrong reply came through a lossy transport", i)
		}
		ok++
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("%d calls succeeded and %d failed; the session should see both", ok, failed)
	}
	t.Logf("%d calls succeeded, %d failed", ok, failed)
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

// TestOutputDigestsReportsLowestLostPartition kills a worker after the
// chain, so some output partitions lose their only replica. The partitions
// are digested concurrently, yet the error must name the lowest lost one,
// as a serial pass would.
func TestOutputDigestsReportsLowestLostPartition(t *testing.T) {
	cfg := ChainConfig{Jobs: 1, NumReducers: 8, RecordsPerPartition: 60, Seed: 5}
	c := startCluster(t, 4, 2, 40)
	d := runChain(t, c, cfg)
	_, _, out := middleware.ChainNames(cfg.Jobs)
	const victim = 2
	lowest := -1
	_ = c.m.WithFS(func(fs *dfs.FS) error {
		for p := 0; p < cfg.NumReducers && lowest < 0; p++ {
			for _, nodes := range fs.BlockLocations(out, p) {
				if len(nodes) == 1 && nodes[0] == victim {
					lowest = p
					break
				}
			}
		}
		return nil
	})
	if lowest < 0 {
		t.Fatalf("worker %d holds no output block alone", victim)
	}
	c.killAndAwaitDetection(t, victim)
	_, err := d.OutputDigests()
	if want := fmt.Sprintf("%s/p%d/", out, lowest); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %s", err, want)
	}
}
