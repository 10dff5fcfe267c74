package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rcmp/internal/des"
)

// refRates recomputes max-min fair rates for every active flow with a
// direct port of the pre-refactor global water-filler: one flat pass over
// all flows and resources, no components, no trunks. It is the oracle the
// incremental rebalance is cross-checked against.
func refRates(net *Network) map[*Flow]float64 {
	type scratch struct {
		remaining float64
		weight    float64
		count     int
	}
	res := make(map[*Resource]*scratch)
	type refFlow struct {
		f    *Flow
		uses []Use
	}
	var flows []*refFlow
	for _, f := range net.flows {
		rf := &refFlow{f: f, uses: f.tr.uses}
		flows = append(flows, rf)
		for _, u := range rf.uses {
			if _, ok := res[u.R]; !ok {
				res[u.R] = &scratch{remaining: u.R.Effective(u.R.active)}
			}
			res[u.R].weight += u.Weight
			res[u.R].count++
		}
	}
	rates := make(map[*Flow]float64)
	frozen := make(map[*refFlow]bool)
	for len(frozen) < len(flows) {
		bottleneck := math.Inf(1)
		for _, s := range res {
			if s.count == 0 || s.weight <= 0 {
				continue
			}
			if rate := s.remaining / s.weight; rate < bottleneck {
				bottleneck = rate
			}
		}
		if math.IsInf(bottleneck, 1) {
			for _, rf := range flows {
				if !frozen[rf] {
					frozen[rf] = true
					rates[rf.f] = math.MaxFloat64 / 4
				}
			}
			break
		}
		if bottleneck < 0 {
			bottleneck = 0
		}
		progressed := false
		for _, rf := range flows {
			if frozen[rf] {
				continue
			}
			limit := math.Inf(1)
			for _, u := range rf.uses {
				if l := res[u.R].remaining / res[u.R].weight; l < limit {
					limit = l
				}
			}
			if limit <= bottleneck*(1+1e-12) {
				frozen[rf] = true
				progressed = true
				rates[rf.f] = bottleneck
				for _, u := range rf.uses {
					s := res[u.R]
					s.remaining -= bottleneck * u.Weight
					if s.remaining < 0 {
						s.remaining = 0
					}
					s.weight -= u.Weight
					s.count--
				}
			}
		}
		if !progressed {
			var worst *refFlow
			worstLimit := math.Inf(1)
			for _, rf := range flows {
				if frozen[rf] {
					continue
				}
				limit := math.Inf(1)
				for _, u := range rf.uses {
					if l := res[u.R].remaining / res[u.R].weight; l < limit {
						limit = l
					}
				}
				if limit < worstLimit {
					worstLimit = limit
					worst = rf
				}
			}
			frozen[worst] = true
			rates[worst.f] = worstLimit
			for _, u := range worst.uses {
				s := res[u.R]
				s.remaining -= worstLimit * u.Weight
				if s.remaining < 0 {
					s.remaining = 0
				}
				s.weight -= u.Weight
				s.count--
			}
		}
	}
	return rates
}

// checkInvariants asserts, for the current network state:
//   - cross-check: every live rate equals the reference global water-filler;
//   - conservation: no resource carries more than its effective capacity;
//   - max-min fairness: every flow is pinned by a saturated resource on
//     which no competing flow runs faster (so no flow's rate can be raised
//     without lowering a slower-or-equal one).
//
// Rates are read through Flow.Rate, which settles the network first and
// resolves class accounting's per-trunk rate.
func checkInvariants(t *testing.T, net *Network, where string) {
	t.Helper()
	ref := refRates(net)
	load := make(map[*Resource]float64)
	maxRate := make(map[*Resource]float64)
	for _, f := range net.flows {
		want, rate := ref[f], f.Rate()
		if diff := math.Abs(rate - want); diff > 1e-9*math.Max(1, want) {
			t.Fatalf("%s: flow %q rate %g diverges from reference %g", where, f.Label, rate, want)
		}
		for _, u := range f.tr.uses {
			load[u.R] += rate * u.Weight
			if rate > maxRate[u.R] {
				maxRate[u.R] = rate
			}
		}
	}
	for r, l := range load {
		if eff := r.Effective(r.active); l > eff*(1+1e-9) {
			t.Fatalf("%s: resource %s oversubscribed: load %g > effective %g", where, r.Name, l, eff)
		}
	}
	for _, f := range net.flows {
		rate := f.Rate()
		if rate >= math.MaxFloat64/8 {
			continue // unconstrained flow: nothing pins it
		}
		pinned := false
		for _, u := range f.tr.uses {
			eff := u.R.Effective(u.R.active)
			saturated := load[u.R] >= eff*(1-1e-9)
			if saturated && maxRate[u.R] <= rate*(1+1e-9) {
				pinned = true
				break
			}
		}
		if !pinned {
			t.Fatalf("%s: flow %q rate %g has no saturated bottleneck where it is fastest; "+
				"it could be increased without hurting a slower flow (max-min violated)", where, f.Label, rate)
		}
	}
}

// accountingModes are the two ways a network keeps its books; every
// churn property must hold in each.
var accountingModes = []struct {
	name   string
	enable func(*Network)
}{
	{"strict", func(*Network) {}},
	{"class", (*Network).EnableClassAccounting},
}

// churnTrace is everything a churn run makes observable: which flow
// completed when (in callback order), every live flow's rate at every
// checkpoint, and the final completion count. Two runs of one seed that
// differ only in when they settle must produce equal traces.
type churnTrace struct {
	doneID    []int
	doneAt    []des.Time
	rates     []float64
	completed uint64
}

// churn drives one random start/abort/complete sequence. Operations come
// in bursts — at top level, inside a timer handler, and inside completion
// callbacks — so several starts, aborts and completions share one instant
// and the network owes (and coalesces) their recomputation; sizes repeat so
// that completions tie. Same-instant storms put several events at one
// time: timers scheduled for one identical instant, After(0) timers
// scheduled from handlers and completion callbacks, and tied extra-latency
// finishes (repeated sizes and zero-size flows share one latency), storms
// landing on the pending completion's instant, and flows with no finite
// bottleneck, which complete at the instant they start. Rates
// are sampled only when the clock has moved since the last sample, so a
// sample's forced settle does not mask deferral across an instant's
// events. With settleEachOp every operation is followed by a forced
// settle, which is the eager recomputation the deferred one must match
// bit for bit.
type churn struct {
	rng          *rand.Rand
	sim          *des.Simulator
	net          *Network
	resources    []*Resource
	trunks       []*Trunk
	live         []*Flow
	started      int
	settleEachOp bool
	trace        churnTrace
	sampled      bool     // a rate sample has been taken
	sampledAt    des.Time // clock at the last rate sample
}

func newChurn(seed int64, enable func(*Network), settleEachOp bool) *churn {
	c := &churn{rng: rand.New(rand.NewSource(seed)), sim: des.New(), settleEachOp: settleEachOp}
	c.net = NewNetwork(c.sim)
	enable(c.net)
	c.resources = make([]*Resource, 3+c.rng.Intn(8))
	for i := range c.resources {
		c.resources[i] = &Resource{Name: "r", Capacity: 20 + c.rng.Float64()*300, SeekPenalty: c.rng.Float64() * 0.4}
		if c.rng.Intn(2) == 0 {
			c.resources[i].PenaltyCap = 0.5 + c.rng.Float64()
		}
	}
	if c.rng.Intn(2) == 0 {
		// A flow over this resource alone has no finite bottleneck and
		// completes at the instant it starts.
		c.resources[0].Capacity = math.Inf(1)
	}
	// A few caller-owned trunks, so members join and leave shared
	// arbitration units as well as singleton ones.
	for i := 0; i < 3; i++ {
		c.trunks = append(c.trunks, c.net.NewTrunk("shared", c.randomUses()))
	}
	return c
}

func (c *churn) randomUses() []Use {
	k := 1 + c.rng.Intn(3)
	uses := make([]Use, 0, k)
	seen := map[int]bool{}
	for len(uses) < k {
		j := c.rng.Intn(len(c.resources))
		if seen[j] {
			continue
		}
		seen[j] = true
		uses = append(uses, Use{c.resources[j], []float64{0.25, 0.5, 1, 2}[c.rng.Intn(4)]})
	}
	return uses
}

func (c *churn) drop(f *Flow) {
	for i, g := range c.live {
		if g == f {
			c.live = append(c.live[:i], c.live[i+1:]...)
			return
		}
	}
}

// op starts a flow or aborts a live one. depth bounds the recursion of
// callbacks that run further operations.
func (c *churn) op(depth int) {
	if c.rng.Intn(10) < 6 || len(c.live) == 0 {
		size := []float64{100, 400, 1600}[c.rng.Intn(3)]
		switch c.rng.Intn(8) {
		case 0:
			size = 0 // finishes after its latency alone, tied with its peers'
		case 1, 2, 3:
			size = 100 + c.rng.Float64()*5000
		}
		var extra des.Time
		if c.rng.Intn(4) == 0 {
			extra = 0.5
		}
		id := c.started
		c.started++
		onDone := func(f *Flow) {
			c.trace.doneID = append(c.trace.doneID, id)
			c.trace.doneAt = append(c.trace.doneAt, c.sim.Now())
			c.drop(f)
			if depth < 2 {
				switch c.rng.Intn(4) {
				case 0, 1:
					c.burst(depth + 1)
				case 2:
					c.sim.After(0, func() { c.burst(depth + 1) })
				}
			}
		}
		var f *Flow
		if c.rng.Intn(3) == 0 {
			f = c.trunks[c.rng.Intn(len(c.trunks))].Start("f", size, extra, onDone)
		} else {
			f = c.net.Start("f", size, c.randomUses(), extra, onDone)
		}
		c.live = append(c.live, f)
	} else {
		f := c.live[c.rng.Intn(len(c.live))]
		c.net.Abort(f)
		c.drop(f)
	}
	if c.settleEachOp {
		c.net.settle()
	}
}

// burst runs a few operations; inside a handler (depth > 0) it may also
// leave an After(0) timer that runs another burst later in the instant.
func (c *churn) burst(depth int) {
	for k := 1 + c.rng.Intn(4); k > 0; k-- {
		c.op(depth)
	}
	if depth > 0 && depth < 2 && c.rng.Intn(3) == 0 {
		c.sim.After(0, func() { c.burst(depth + 1) })
	}
}

// step runs one burst (top-level, inside a timer handler, or inside each
// of a storm of timers due at one identical time) or lets the earliest
// completion fire, then records a checkpoint if the clock has moved.
func (c *churn) step() {
	switch r := c.rng.Intn(12); {
	case r < 4 || len(c.live) == 0:
		c.burst(0)
	case r < 6:
		fired := false
		c.sim.After(des.Time(c.rng.Float64()*3), func() { fired = true; c.burst(1) })
		for !fired && c.sim.Step() {
		}
	case r < 9:
		at := c.sim.Now()
		switch c.rng.Intn(3) {
		case 0:
			at += des.Time(c.rng.Float64() * 3)
		case 1:
			// Land on the pending completion's instant (settled first,
			// so both runs read the same event).
			c.net.settle()
			if c.net.completion != nil {
				at = c.net.completion.At()
			}
		}
		k := 2 + c.rng.Intn(4)
		fired := 0
		for i := 0; i < k; i++ {
			c.sim.At(at, func() { fired++; c.burst(1) })
		}
		if c.rng.Intn(2) == 0 {
			// Re-point the completion event under a later sequence number,
			// so the storm is ordered ahead of it when they share an instant.
			c.burst(0)
		}
		for fired < k && c.sim.Step() {
		}
	default:
		before := c.net.Completed
		for c.sim.Step() && c.net.Completed == before {
		}
	}
	if now := c.sim.Now(); !c.sampled || now > c.sampledAt {
		c.sampled, c.sampledAt = true, now
		for _, f := range c.net.flows {
			c.trace.rates = append(c.trace.rates, f.Rate())
		}
	}
}

// finish aborts what is left and reports leaks.
func (c *churn) finish(t *testing.T, where string) {
	t.Helper()
	for len(c.live) > 0 {
		c.net.Abort(c.live[0])
		c.drop(c.live[0])
	}
	c.sim.Run()
	c.trace.completed = c.net.Completed
	if c.net.ActiveFlows() != 0 || c.net.Components() != 0 {
		t.Fatalf("%s: leaked %d flows / %d components", where, c.net.ActiveFlows(), c.net.Components())
	}
	for _, r := range c.resources {
		if r.Active() != 0 {
			t.Fatalf("%s: resource leaked %d active members", where, r.Active())
		}
	}
}

// TestPropertyRandomChurn drives random start/abort/complete bursts through
// the incremental rebalance in every accounting mode, re-checking
// conservation, max-min fairness and the reference cross-check at every
// checkpoint.
func TestPropertyRandomChurn(t *testing.T) {
	for _, mode := range accountingModes {
		for trial := 0; trial < 20; trial++ {
			c := newChurn(int64(23+trial), mode.enable, false)
			for step := 0; step < 120; step++ {
				c.step()
				checkInvariants(t, c.net, mode.name+" trial/step")
			}
			c.finish(t, mode.name)
		}
	}
}

// TestPropertySettleEquivalence is the exactness claim of deferred
// settling: the same churn, once as written (recomputation owed, paid once
// per instant) and once with a settle forced after every operation (the
// eager recomputation), must agree bit for bit on every rate, completion
// time, completion order and the final count — in every accounting mode.
func TestPropertySettleEquivalence(t *testing.T) {
	for _, mode := range accountingModes {
		for trial := 0; trial < 40; trial++ {
			var traces [2]churnTrace
			var fills [2]uint64
			for i, eager := range []bool{false, true} {
				c := newChurn(int64(1000+trial), mode.enable, eager)
				for step := 0; step < 150; step++ {
					c.step()
				}
				c.finish(t, mode.name)
				traces[i], fills[i] = c.trace, c.net.fills
			}
			where := fmt.Sprintf("%s trial %d", mode.name, trial)
			compareTraces(t, where, &traces[0], &traces[1])
			if fills[0] >= fills[1] {
				t.Fatalf("%s: %d water-fills deferred vs %d eager: bursts are not coalescing", where, fills[0], fills[1])
			}
		}
	}
}

func compareTraces(t *testing.T, where string, got, want *churnTrace) {
	t.Helper()
	if got.completed != want.completed || len(got.doneID) != len(want.doneID) {
		t.Fatalf("%s: %d completions (%d callbacks) deferred vs %d (%d) eager",
			where, got.completed, len(got.doneID), want.completed, len(want.doneID))
	}
	for i := range got.doneID {
		if got.doneID[i] != want.doneID[i] || got.doneAt[i] != want.doneAt[i] {
			t.Fatalf("%s: completion %d is flow %d at %v deferred, flow %d at %v eager",
				where, i, got.doneID[i], got.doneAt[i], want.doneID[i], want.doneAt[i])
		}
	}
	if len(got.rates) != len(want.rates) {
		t.Fatalf("%s: %d rate samples deferred vs %d eager", where, len(got.rates), len(want.rates))
	}
	for i := range got.rates {
		if got.rates[i] != want.rates[i] {
			t.Fatalf("%s: rate sample %d is %v deferred vs %v eager", where, i, got.rates[i], want.rates[i])
		}
	}
}

// TestPropertyTrunkEquivalence runs one coalesced network (fetch-like
// members multiplexed on shared trunks) against a twin network where every
// transfer is a standalone flow, through an identical op sequence. Rates
// and completion times must match exactly: k trunk members are defined to
// behave like k separate flows.
func TestPropertyTrunkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		simA := des.New()
		netA := NewNetwork(simA) // coalesced
		simB := des.New()
		netB := NewNetwork(simB) // singleton flows

		const nodes = 6
		mkres := func() ([]*Resource, *Resource) {
			disks := make([]*Resource, nodes)
			for i := range disks {
				disks[i] = &Resource{Name: "disk", Capacity: 100, SeekPenalty: 0.35, PenaltyCap: 1.2}
			}
			return disks, &Resource{Name: "core", Capacity: 400}
		}
		disksA, coreA := mkres()
		disksB, coreB := mkres()
		uses := func(disks []*Resource, core *Resource, src, dst int) []Use {
			return []Use{
				{disks[src], 0.25}, {core, 1}, {disks[dst], 0.25},
			}
		}
		trunks := map[int]*Trunk{}
		trunkFor := func(src, dst int) *Trunk {
			key := src*nodes + dst
			if trunks[key] == nil {
				trunks[key] = netA.NewTrunk("pair", uses(disksA, coreA, src, dst))
			}
			return trunks[key]
		}

		type pair struct{ a, b *Flow }
		var live []pair
		var doneA, doneB []des.Time
		for step := 0; step < 80; step++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				if src == dst {
					dst = (dst + 1) % nodes
				}
				size := 50 + rng.Float64()*2000
				a := trunkFor(src, dst).Start("m", size, 0, func(*Flow) { doneA = append(doneA, simA.Now()) })
				b := netB.Start("m", size, uses(disksB, coreB, src, dst), 0, func(*Flow) { doneB = append(doneB, simB.Now()) })
				live = append(live, pair{a, b})
			} else {
				j := rng.Intn(len(live))
				netA.Abort(live[j].a)
				netB.Abort(live[j].b)
				live = append(live[:j], live[j+1:]...)
			}
			// Advance both sims identically: fire any completions due before
			// the next op at a random time step.
			dt := des.Time(rng.Float64() * 10)
			simA.RunUntil(simA.Now() + dt)
			simB.RunUntil(simB.Now() + dt)
			kept := live[:0]
			for _, p := range live {
				if p.a.finished != p.b.finished {
					t.Fatalf("trial %d: coalesced and singleton twins disagree on completion", trial)
				}
				if !p.a.finished {
					if p.a.rate != p.b.rate {
						t.Fatalf("trial %d: member rate %g != singleton rate %g", trial, p.a.rate, p.b.rate)
					}
					kept = append(kept, p)
				}
			}
			live = kept
		}
		simA.Run()
		simB.Run()
		if len(doneA) != len(doneB) {
			t.Fatalf("trial %d: %d coalesced completions vs %d singleton", trial, len(doneA), len(doneB))
		}
		for i := range doneA {
			if doneA[i] != doneB[i] {
				t.Fatalf("trial %d: completion %d at %v (coalesced) vs %v (singleton)", trial, i, doneA[i], doneB[i])
			}
		}
	}
}
