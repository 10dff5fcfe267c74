package dmr

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rcmp/internal/dfs"
	"rcmp/internal/engine"
	"rcmp/internal/lineage"
	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// front is a second listener in front of a real worker's own handler that
// records the shuffle fetches it receives and can hold its replies back, so
// a test can count requests and force replies to arrive out of order.
type front struct {
	srv *wire.Server

	mu      sync.Mutex
	fetches []FetchMapOutReq
}

func frontWorker(t *testing.T, w *Worker, delay time.Duration, replied chan<- string) *front {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &front{}
	f.srv = wire.NewServer(ln, func(from net.Addr, req any) (any, error) {
		if r, ok := req.(FetchMapOutReq); ok {
			f.mu.Lock()
			f.fetches = append(f.fetches, r)
			f.mu.Unlock()
			time.Sleep(delay)
			defer func() { replied <- f.srv.Addr() }()
		}
		return w.handle(from, req)
	})
	t.Cleanup(func() { f.srv.Close() })
	return f
}

func (f *front) seen() []FetchMapOutReq {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FetchMapOutReq(nil), f.fetches...)
}

// shuffleFixture is a 4-worker cluster holding twelve hand-placed map
// outputs of job 1, source i on worker i%4, all emitting the same five
// keys: the reducer's output then lists each key's values in Sources order,
// so an ingest in reply-arrival order shows. Worker 0 reduces; workers 1-3
// are reached through fronts, worker 1's (first in Sources) the slow one.
type shuffleFixture struct {
	c       *cluster
	fronts  []*front // index = worker ID; nil for worker 0
	rows    [][]workload.Record
	sources []MapSrc
	replied chan string
}

const fixtureSources, fixtureKeys = 12, 5

func newShuffleFixture(t *testing.T) *shuffleFixture {
	t.Helper()
	// replied has room for a send per source, so fronts never block on it
	// even if the worker were to fetch every map output separately.
	fx := &shuffleFixture{c: startCluster(t, 4, 1, 40), fronts: make([]*front, 4), replied: make(chan string, fixtureSources)}
	for id := 1; id < 4; id++ {
		delay := time.Duration(0)
		if id == 1 {
			delay = 40 * time.Millisecond
		}
		fx.fronts[id] = frontWorker(t, fx.c.workers[id], delay, fx.replied)
	}
	gen := workload.Generate(fixtureSources*fixtureKeys, 11)
	for i := 0; i < fixtureSources; i++ {
		rows := gen[i*fixtureKeys : (i+1)*fixtureKeys]
		for k := range rows {
			rows[k].Key = uint64(k)
		}
		fx.rows = append(fx.rows, rows)
		fx.c.workers[i%4].store.PutMapOutput(1, i, 0, [][]workload.Record{rows})
		addr := fx.c.workers[0].Addr()
		if i%4 != 0 {
			addr = fx.fronts[i%4].srv.Addr()
		}
		fx.sources = append(fx.sources, MapSrc{Part: i, Block: 0, Addr: addr})
	}
	return fx
}

func (fx *shuffleFixture) reduce(split, splits int) (any, error) {
	return fx.c.workers[0].runReducer(RunReducerReq{
		Job: 1, Reducer: 0, Split: split, Splits: splits, NumReducers: 1, Sources: fx.sources,
		OutFile: "out", OutPart: 0, OutBlock: split,
	})
}

// TestShuffleBatchesPerSourceWorkerAndKeepsSourcesOrder pins the two
// contracts of the batched shuffle on a whole and on a split reducer: one
// request per distinct remote source worker, carrying that worker's refs in
// Sources order; and an output that lists values in Sources order although
// the first remote source's reply lands last.
func TestShuffleBatchesPerSourceWorkerAndKeepsSourcesOrder(t *testing.T) {
	for _, tc := range []struct{ split, splits int }{{0, 1}, {0, 2}, {1, 2}} {
		t.Run(fmt.Sprintf("split%dof%d", tc.split, tc.splits), func(t *testing.T) {
			fx := newShuffleFixture(t)
			if _, err := fx.reduce(tc.split, tc.splits); err != nil {
				t.Fatal(err)
			}

			var want []workload.Record
			for k := 0; k < fixtureKeys; k++ {
				for _, rows := range fx.rows {
					if tc.splits == 1 || splitOfRecord(rows[k], tc.splits) == tc.split {
						want = append(want, rows[k])
					}
				}
			}
			got, err := fx.c.workers[0].store.GetBlock("out", 0, tc.split)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reducer output is not in Sources order: %d records, want %d in another order", len(got), len(want))
			}

			for id := 1; id < 4; id++ {
				seen := fx.fronts[id].seen()
				if len(seen) != 1 {
					t.Fatalf("source worker %d received %d shuffle requests for one reducer, want 1", id, len(seen))
				}
				wantRefs := []BlockRef{{Part: id}, {Part: id + 4}, {Part: id + 8}}
				if !reflect.DeepEqual(seen[0].Refs, wantRefs) {
					t.Fatalf("source worker %d was asked for %v, want %v", id, seen[0].Refs, wantRefs)
				}
			}
			var order []string
			for i := 0; i < 3; i++ {
				order = append(order, <-fx.replied)
			}
			if order[2] != fx.fronts[1].srv.Addr() {
				t.Fatalf("the slow source did not reply last (%v): the test forced no reordering", order)
			}
		})
	}
}

// TestShuffleMissingMapOutputNamesIt: a source worker that lost one of the
// map outputs it is asked for fails the whole reducer, and the error says
// which output (job/partition/block) and which peer.
func TestShuffleMissingMapOutputNamesIt(t *testing.T) {
	fx := newShuffleFixture(t)
	fx.c.workers[2].store.EvictMapOutput(1, 6, 0)
	_, err := fx.reduce(0, 1)
	if err == nil {
		t.Fatal("reducer succeeded without map output p6/b0")
	}
	for _, want := range []string{"reducer 0.0", "shuffle from " + fx.fronts[2].srv.Addr(), "job 1 over p6/b0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestSplitShuffleReplyRejectsBadReplies(t *testing.T) {
	rows := RecordBatch(workload.Generate(6, 5))
	cases := []struct {
		name  string
		resp  any
		nrefs int
		want  string // "" = accepted
	}{
		{"exact", FetchMapOutResp{Records: rows, Counts: []int{2, 0, 4}}, 3, ""},
		{"all empty", FetchMapOutResp{Counts: []int{0, 0}}, 2, ""},
		{"wrong message", PingResp{}, 1, "replied dmr.PingResp, want dmr.FetchMapOutResp"},
		{"nil reply", nil, 1, "replied <nil>"},
		{"a count per ref missing", FetchMapOutResp{Records: rows, Counts: []int{6}}, 2, "answered 1 map outputs, asked for 2"},
		{"no counts", FetchMapOutResp{Records: rows}, 1, "answered 0 map outputs"},
		{"negative count", FetchMapOutResp{Records: rows, Counts: []int{-1, 7}}, 2, "do not fit"},
		{"counts exceed the records", FetchMapOutResp{Records: rows, Counts: []int{4, 3}}, 2, "do not fit"},
		{"counts fall short of the records", FetchMapOutResp{Records: rows, Counts: []int{4, 1}}, 2, "leave 1 of its 6 records over"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts, err := splitShuffleReply(tc.resp, "peer:1", tc.nrefs)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for i, p := range parts {
					if len(p) != tc.resp.(FetchMapOutResp).Counts[i] {
						t.Fatalf("part %d has %d records", i, len(p))
					}
					n += len(p)
				}
				if len(parts) != tc.nrefs || n != len(tc.resp.(FetchMapOutResp).Records) {
					t.Fatalf("%d parts holding %d records", len(parts), n)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "peer:1") {
				t.Fatalf("error %v, want one naming the peer and mentioning %q", err, tc.want)
			}
		})
	}
}

// TestMistypedPeerRepliesAreErrors: a peer that answers a data-plane fetch
// with the wrong message fails the task with an error naming it; it used to
// panic the handler goroutine and with it the worker process.
func TestMistypedPeerRepliesAreErrors(t *testing.T) {
	c := startCluster(t, 1, 1, 40)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	confused := wire.NewServer(ln, func(net.Addr, any) (any, error) { return PingResp{}, nil })
	defer confused.Close()
	w := c.workers[0]

	_, err = w.runMapper(RunMapperReq{Job: 1, InFile: "f", NumReducers: 1, Holders: []string{confused.Addr()}})
	if err == nil || !strings.Contains(err.Error(), "peer "+confused.Addr()+" replied dmr.PingResp") {
		t.Fatalf("mapper input fetch: error %v, want one naming the peer and its reply type", err)
	}
	_, err = w.runReducer(RunReducerReq{Job: 1, Splits: 1, NumReducers: 1, Sources: []MapSrc{{Addr: confused.Addr()}}})
	if err == nil || !strings.Contains(err.Error(), "peer "+confused.Addr()+" replied dmr.PingResp") {
		t.Fatalf("shuffle fetch: error %v, want one naming the peer and its reply type", err)
	}
}

// TestMistypedWorkerRepliesAreMasterErrors is the master's side of the same
// rule: a registered worker that answers a digest, mapper or reducer call
// with the wrong message yields an error naming it at each of the three
// call sites; each used to be an unchecked assertion that panicked the
// master process.
func TestMistypedWorkerRepliesAreMasterErrors(t *testing.T) {
	timing := TestTiming()
	timing.DetectionTimeout = time.Minute // the impostor never heartbeats
	m, err := StartMaster(MasterConfig{SlotsPerWorker: 1, Timing: timing}, 40)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	confused := wire.NewServer(ln, func(net.Addr, any) (any, error) { return PingResp{}, nil })
	defer confused.Close()
	if _, err := m.register(RegisterReq{Worker: 0, Addr: confused.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := m.WithFS(func(fs *dfs.FS) error {
		if _, err := fs.Create("f", 1); err != nil {
			return err
		}
		_, err := fs.SetPartitionBlocks("f", 0, []int64{1}, [][]int{{0}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{ID: 1, InFile: "f", OutFile: "g", NumReducers: 1}
	cases := []struct {
		name string
		want string
		call func() error
	}{
		{"digest", "DigestResp", func() error {
			_, err := m.PartitionDigest("f", 0)
			return err
		}},
		{"mapper", "RunMapperResp", func() error {
			_, _, err := m.runMapPhase(spec, []lineage.MapperMeta{{}}, nil)
			return err
		}},
		{"reducer", "RunReducerResp", func() error {
			place := reducePlacement{splits: 1, worker: m.workerIfAlive(0), set: []int{0}}
			_, err := m.runReducePhase(spec, []reducePlacement{place}, nil, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			want := "peer " + confused.Addr() + " replied dmr.PingResp, want dmr." + tc.want
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one containing %q", err, want)
			}
		})
	}
}

// TestReadInputFallsBackToHoldersWhenBlockDropped: a mapper whose local
// copy of its input block is dropped under it (the DropPartitionReq of a
// concurrent recomputation) must read the block from a listed holder. The
// pre-fix check-then-read turned that window into a failed mapper.
func TestReadInputFallsBackToHoldersWhenBlockDropped(t *testing.T) {
	c := startCluster(t, 2, 1, 40)
	rows := workload.Generate(8, 3)
	local, holder := c.workers[0], c.workers[1]
	holder.store.PutBlock("f", 0, 0, rows)
	req := RunMapperReq{InFile: "f", Part: 0, Block: 0, Holders: []string{local.Addr(), holder.Addr()}}

	got, remote, err := local.readInput(req)
	if err != nil || !remote || len(got) != len(rows) {
		t.Fatalf("block absent locally: %d records, remote=%v, err=%v", len(got), remote, err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				local.store.PutBlock("f", 0, 0, rows)
				local.store.DropPartition("f", 0)
			}
		}
	}()
	defer func() { close(stop); churn.Wait() }()
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
		got, _, err := local.readInput(req)
		if err != nil {
			t.Fatalf("input unreadable although %s holds it: %v", holder.Addr(), err)
		}
		if len(got) != len(rows) {
			t.Fatalf("read %d records, want %d", len(got), len(rows))
		}
	}
}

// engineDigests runs the chain on the functional engine: the data-plane
// reference any runtime must reproduce, failures or not.
func engineDigests(t *testing.T, nodes, blockRecords int, cfg ChainConfig) []workload.Digest {
	t.Helper()
	e, err := engine.New(engine.Config{
		Nodes: nodes, NumReducers: cfg.NumReducers, Jobs: cfg.Jobs,
		RecordsPerNode: cfg.RecordsPerPartition, RecordsPerBlock: blockRecords, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	eds, err := e.OutputDigests()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]workload.Digest, len(eds))
	for i, d := range eds {
		out[i] = workload.Digest(d)
	}
	return out
}

// TestChainDigestsWithOneSlowSource runs whole chains, with a kill so that
// recomputation (and, with Split, split shuffles) happens, while worker 2's
// every write is held back in bursts: its shuffle replies land after those
// of sources later in Sources. The output must equal the functional
// engine's and an undisturbed run's, with Split on and off.
func TestChainDigestsWithOneSlowSource(t *testing.T) {
	for _, split := range []bool{false, true} {
		t.Run(fmt.Sprintf("split=%v", split), func(t *testing.T) {
			cfg := ChainConfig{Jobs: 4, NumReducers: 8, RecordsPerPartition: 240, Seed: 31, Split: split}
			want := engineDigests(t, 4, 40, cfg)
			assertDigestsEqual(t, referenceDigests(t, 4, 2, 40, cfg), want)

			chaos := &wire.Chaos{Seed: 9}
			c := startChaosCluster(t, 4, 2, 40, chaos, wire.RetryPolicy{})
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					chaos.Partition("w2", "*")
					time.Sleep(2 * time.Millisecond)
					chaos.Heal("w2", "*")
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
					}
				}
			}()
			t.Cleanup(func() { close(stop); <-stopped })

			cfg.AfterJob = func(job int) {
				if job == 2 {
					c.killAndAwaitDetection(t, 1)
				}
			}
			d := runChain(t, c, cfg)
			if d.RecoveryEpisodes != 1 {
				t.Fatalf("RecoveryEpisodes = %d, want 1", d.RecoveryEpisodes)
			}
			digs, err := d.OutputDigests()
			if err != nil {
				t.Fatal(err)
			}
			assertDigestsEqual(t, digs, want)
		})
	}
}
