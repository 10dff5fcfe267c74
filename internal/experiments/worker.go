package experiments

import (
	"fmt"

	"rcmp/internal/analytic"
	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
)

// Worker owns the simulation context of one goroutine that runs
// experiments one after another: its last mapreduce.Context, kept for the
// next DES run on the same cluster.Config. Rebuilding a topology per chain
// is what a reused context saves; keeping only the last one bounds memory
// at one context per worker, the one its last run already needed.
//
// The zero value is ready to use. A Worker is not safe for concurrent use:
// each runner and server worker goroutine holds its own.
type Worker struct {
	key string // fmt "%+v" of the cluster.Config ctx was built for
	ctx *mapreduce.Context
}

// WithWorker returns a copy of c whose simulations run on w's context. The
// owner is not part of the experiment's identity: ConfigDigest and every
// report ignore it, and a nil w means a fresh Worker per Spec.Exec call.
func (c Config) WithWorker(w *Worker) Config {
	c.worker = w
	return c
}

// owner is the Worker a figure's runs share: the one Spec.Exec or the
// caller attached, or a fresh one for a raw Spec.Run call.
func (c Config) owner() *Worker {
	if c.worker != nil {
		return c.worker
	}
	return new(Worker)
}

// onContext runs one DES computation for ccfg on the worker's context. It
// takes the context out of the slot (building a new one when the slot is
// empty or holds another configuration) and puts it back only when run
// returns without error: an errored or panicking run may leave events or
// flows mid-flight, so its context is dropped rather than reused.
func onContext[R any](w *Worker, ccfg cluster.Config, run func(*mapreduce.Context) (R, error)) (R, error) {
	key := fmt.Sprintf("%+v", ccfg) // fmt prints NodeDiskScale in key order
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
