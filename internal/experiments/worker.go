package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"rcmp/internal/analytic"
	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
)

// Worker owns the simulation contexts of one goroutine that runs
// experiments one after another: its last mapreduce.Context, kept for the
// next DES run on the same cluster.Config. Rebuilding a topology per chain
// is what a reused context saves; keeping only the last one bounds memory
// at one context per lane, the one its last run already needed.
//
// A Worker's width is how many of a figure's independent runs it executes
// at once (see each). Lane 0 is the Worker itself; every further lane is a
// Worker of its own, with its own context, built the first time a figure
// fans out that wide and kept for the next.
//
// The zero value is ready to use and runs everything on one lane. A Worker
// is not safe for concurrent use: each runner and server worker goroutine
// holds its own.
type Worker struct {
	key   string // fmt "%+v" of the cluster.Config ctx was built for
	ctx   *mapreduce.Context
	width int       // lanes a figure's runs may use; below 2 means one
	lanes []*Worker // lanes 1 to width-1, built on first use
}

// NewWorker returns a Worker whose figures run up to width independent
// simulations at once. A width below 2 runs them one after another, as the
// zero Worker does. The width never changes a result or an error.
func NewWorker(width int) *Worker { return &Worker{width: width} }

// WithWorker returns a copy of c whose simulations run on w's contexts. The
// owner is not part of the experiment's identity: ConfigDigest and every
// report ignore it, and a nil w means a fresh Worker per Spec.Exec call.
func (c Config) WithWorker(w *Worker) Config {
	c.worker = w
	return c
}

// owner is the Worker a figure's runs share: the one Spec.Exec or the
// caller attached, or for a raw Spec.Run call a fresh one as wide as
// GOMAXPROCS.
func (c Config) owner() *Worker {
	if c.worker != nil {
		return c.worker
	}
	return NewWorker(runtime.GOMAXPROCS(0))
}

// each calls fn(lane, i) for every i in [0, n) and returns when all calls
// have returned. On a Worker of width 1, and always under EngineAnalytic
// (whose runs take microseconds), it calls them in index order on w.
// Otherwise the calling goroutine is lane 0 and up to width-1 goroutines
// are the others; each lane takes the next index as it frees up (see
// fanOut.next), going through them in the order start lists them (nil:
// index order), so a figure can start its longest runs first. key, when
// given, names the cluster configuration index i simulates on, so that
// lanes reuse the contexts they hold. fn must touch only index i's state
// and simulate only on lane. Every DES run starts on a context reset to
// its just-built state, so which lane runs which index changes no result.
//
// Failures keep the meaning of the serial loop each replaces: the lowest
// index whose call panicked decides, and each panics only after every lane
// has returned. A chainError is raised again as it is; any other panic is
// raised as a lanePanic, which keeps its message and its lane's stack. An
// index above one that failed may be skipped, since the serial loop would
// never have reached it.
func (w *Worker) each(e Engine, n int, start []int, key func(i int) string, fn func(lane *Worker, i int)) {
	width := min(w.width, n)
	if width < 2 || e == EngineAnalytic {
		for i := range n {
			fn(w, i)
		}
		return
	}
	for len(w.lanes) < width-1 {
		w.lanes = append(w.lanes, new(Worker))
	}
	lanes := append([]*Worker{w}, w.lanes[:width-1]...)
	f := &fanOut{order: slices.Clone(start), held: make([]string, width), low: n}
	if f.order == nil {
		f.order = make([]int, n)
		for k := range f.order {
			f.order[k] = k
		}
	}
	if key != nil {
		f.keys = make([]string, n)
		for i := range f.keys {
			f.keys[i] = key(i)
		}
	}
	for l, lane := range lanes {
		f.held[l] = lane.key
	}
	work := func(l int) {
		for {
			i, ok := f.next(l)
			if !ok {
				return
			}
			if p, ok := try(lanes[l], i, fn); !ok {
				f.failed(i, p)
			}
		}
	}
	var wg sync.WaitGroup
	for l := 1; l < width; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(l)
		}()
	}
	work(0)
	wg.Wait()
	if f.low < n {
		if ce, ok := f.fail.val.(chainError); ok {
			panic(ce)
		}
		panic(f.fail)
	}
}

// fanOut is the state one each call's lanes share.
type fanOut struct {
	mu    sync.Mutex
	order []int     // indices no lane has taken, in start order
	keys  []string  // per index, its cluster configuration; nil: all alike
	held  []string  // per lane, the configuration its context holds
	low   int       // the lowest failed index; n while none has failed
	fail  lanePanic // its panic
}

// next hands lane l the first index in start order, preferring one on the
// configuration its context holds, then one on a configuration no other
// lane holds: a lane that moves to a new configuration builds a context
// and fills its free lists again, which is most of what an extra lane
// costs. It skips indices above a failed one, and reports false when none
// is left.
func (f *fanOut) next(l int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	best, bestRank := -1, 3
	for k, i := range f.order {
		if i > f.low {
			continue
		}
		rank := 2
		switch {
		case f.keys == nil || f.keys[i] == f.held[l]:
			rank = 0
		case !slices.Contains(f.held, f.keys[i]):
			rank = 1
		}
		if rank < bestRank {
			best, bestRank = k, rank
			if rank == 0 {
				break
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	i := f.order[best]
	f.order = slices.Delete(f.order, best, best+1)
	if f.keys != nil {
		f.held[l] = f.keys[i]
	}
	return i, true
}

// failed records that index i panicked with p.
func (f *fanOut) failed(i int, p lanePanic) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < f.low {
		f.low, f.fail = i, p
	}
}

// Each is each for a figure defined outside this package: the DES's
// lanes, in index order.
func (w *Worker) Each(n int, fn func(lane *Worker, i int)) { w.each(EngineDES, n, nil, nil, fn) }

// descending is the start order n-1, ..., 0: for a figure whose later
// runs are its longest, so they never start last.
func descending(n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = n - 1 - k
	}
	return out
}

// try calls fn(lane, i) and reports a panic instead of unwinding.
func try(lane *Worker, i int, fn func(*Worker, int)) (p lanePanic, ok bool) {
	defer func() {
		if v := recover(); v != nil {
			p, ok = lanePanic{val: v, stack: debug.Stack()}, false
		}
	}()
	fn(lane, i)
	return lanePanic{}, true
}

// lanePanic carries a panic out of a lane to the goroutine that called
// each. It prints as the original value followed by the stack at the lane's
// panic site, so a recovered panic (runner.RunOne) keeps its first line,
// and the stack it records still leads to where the panic began.
type lanePanic struct {
	val   any
	stack []byte
}

func (p lanePanic) Error() string {
	return fmt.Sprintf("%v\n\npanicked on a lane:\n%s", p.val, p.stack)
}

// onContext runs one DES computation for ccfg on the worker's context. It
// takes the context out of the slot (building a new one when the slot is
// empty or holds another configuration) and puts it back only when run
// returns without error: an errored or panicking run may leave events or
// flows mid-flight, so its context is dropped rather than reused.
func onContext[R any](w *Worker, ccfg cluster.Config, run func(*mapreduce.Context) (R, error)) (R, error) {
	key := contextKey(ccfg)
	ctx, kept := w.ctx, w.key
	w.key, w.ctx = "", nil
	if ctx == nil || kept != key {
		if err := ccfg.Validate(); err != nil {
			var zero R
			return zero, err
		}
		ctx = mapreduce.NewContext(ccfg)
	}
	res, err := run(ctx)
	if err == nil {
		w.key, w.ctx = key, ctx
	}
	return res, err
}

// contextKey names the cluster configuration a context is built for.
func contextKey(ccfg cluster.Config) string {
	return fmt.Sprintf("%+v", ccfg) // fmt prints NodeDiskScale in key order
}

// runChain executes one chain on the configured engine.
func (w *Worker) runChain(e Engine, ccfg cluster.Config, cfg mapreduce.ChainConfig) (*mapreduce.Result, error) {
	if e == EngineAnalytic {
		return analytic.RunChain(ccfg, cfg)
	}
	return onContext(w, ccfg, func(ctx *mapreduce.Context) (*mapreduce.Result, error) { return ctx.RunChain(cfg) })
}

// runGraph executes one graph on the configured engine.
func (w *Worker) runGraph(e Engine, ccfg cluster.Config, cfg mapreduce.GraphConfig) (*mapreduce.Result, error) {
	if e == EngineAnalytic {
		return analytic.RunGraph(ccfg, cfg)
	}
	return onContext(w, ccfg, func(ctx *mapreduce.Context) (*mapreduce.Result, error) { return ctx.RunGraph(cfg) })
}

// runMultiTenant executes one shared-cluster session on the configured
// engine.
func (w *Worker) runMultiTenant(e Engine, ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (*mapreduce.MultiResult, error) {
	if e == EngineAnalytic {
		return analytic.RunMultiTenant(ccfg, cfg, tenants)
	}
	return onContext(w, ccfg, func(ctx *mapreduce.Context) (*mapreduce.MultiResult, error) {
		return ctx.RunMultiTenant(cfg, tenants)
	})
}
