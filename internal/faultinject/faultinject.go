// Package faultinject is the deterministic fault-injection plane behind
// the engine's chaos testing: a Plan holds a fixed schedule of faults
// (behavior panics, firing delays, rebind-validation failures) keyed to
// named injection sites, built either explicitly or from a seed. Because
// the schedule is data, not randomness consulted at fire time, the same
// Plan replayed against the same graph produces the same fault sequence —
// the property the differential recovery tests depend on.
//
// A Plan is single-use: each fault fires exactly once (at the K-th firing
// of its node, or the first rebind at or after iteration K) and is then
// spent. Firing-site lookups are coordinated per node by the single actor
// goroutine that owns the node, and rebind lookups by the engine's main
// goroutine, so no locking is needed beyond what the engine already
// provides; engine restarts are sequential on the supervisor goroutine.
package faultinject

import (
	"math/rand"
	"sort"
	"time"
)

// Kind classifies a fault.
type Kind uint8

const (
	// KindPanic makes the K-th firing of Node panic inside its behavior.
	KindPanic Kind = iota + 1
	// KindDelay stalls the K-th firing of Node for Delay before it runs.
	KindDelay
	// KindRebindAbort fails rebind validation at the first parameter
	// change at or after iteration K.
	KindRebindAbort
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindRebindAbort:
		return "rebind_abort"
	default:
		return "unknown"
	}
}

// Fault is one scheduled injection. For firing-site kinds (panic, delay)
// Node names the actor and K is the zero-based firing index at which the
// fault triggers; for KindRebindAbort K is the completed-iteration
// threshold and Node is unused.
type Fault struct {
	Kind  Kind
	Node  string
	K     int64
	Delay time.Duration

	done bool
}

// Plan is a schedule of single-shot faults. The zero Plan (and the nil
// Plan) injects nothing.
type Plan struct {
	byNode  map[string][]*Fault
	rebinds []*Fault
}

// New builds a plan from an explicit fault list.
func New(faults ...Fault) *Plan {
	p := &Plan{byNode: make(map[string][]*Fault)}
	for i := range faults {
		f := faults[i]
		switch f.Kind {
		case KindRebindAbort:
			p.rebinds = append(p.rebinds, &f)
		case KindPanic, KindDelay:
			p.byNode[f.Node] = append(p.byNode[f.Node], &f)
		}
	}
	sort.Slice(p.rebinds, func(i, j int) bool { return p.rebinds[i].K < p.rebinds[j].K })
	return p
}

// Spec parameterizes Seeded: how many faults of each kind to scatter over
// which nodes and firing horizon.
type Spec struct {
	// Nodes are the candidate sites for firing faults (behavior nodes).
	Nodes []string
	// Horizon bounds the firing index K (exclusive); min 1.
	Horizon int64
	// Panics, Delays, RebindAborts count faults of each kind.
	Panics       int
	Delays       int
	RebindAborts int
	// MaxDelay bounds injected delay durations (default 1ms).
	MaxDelay time.Duration
}

// Seeded derives a deterministic plan from a seed: the same seed and spec
// always produce the same schedule. Duplicate (node, K) sites are
// deduplicated by re-rolling, so every requested fault lands on a distinct
// firing.
func Seeded(seed int64, spec Spec) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if spec.Horizon < 1 {
		spec.Horizon = 1
	}
	if spec.MaxDelay <= 0 {
		spec.MaxDelay = time.Millisecond
	}
	var faults []Fault
	if len(spec.Nodes) > 0 {
		type site struct {
			node string
			k    int64
		}
		seen := make(map[site]bool)
		pick := func(kind Kind, n int) {
			for i := 0; i < n; i++ {
				var s site
				ok := false
				// Bounded re-roll: with a tiny horizon the distinct sites
				// can run out; give up rather than loop forever.
				for try := 0; try < 64; try++ {
					s = site{spec.Nodes[rng.Intn(len(spec.Nodes))], rng.Int63n(spec.Horizon)}
					if !seen[s] {
						ok = true
						break
					}
				}
				if !ok {
					return
				}
				seen[s] = true
				f := Fault{Kind: kind, Node: s.node, K: s.k}
				if kind == KindDelay {
					f.Delay = time.Duration(1 + rng.Int63n(int64(spec.MaxDelay)))
				}
				faults = append(faults, f)
			}
		}
		pick(KindPanic, spec.Panics)
		pick(KindDelay, spec.Delays)
	}
	for i := 0; i < spec.RebindAborts; i++ {
		faults = append(faults, Fault{Kind: KindRebindAbort, K: rng.Int63n(spec.Horizon)})
	}
	return New(faults...)
}

// Behavior consults the plan at a firing site: node's k-th firing. It
// returns the delay to sleep before the behavior runs (0 for none) and
// whether the firing must panic. Called by the engine goroutine that fires
// node (its execution context) — per-node fault entries are only ever
// touched by that one goroutine (or sequentially across engine restarts).
func (p *Plan) Behavior(node string, k int64) (delay time.Duration, panicNow bool) {
	if p == nil {
		return 0, false
	}
	for _, f := range p.byNode[node] {
		if f.done || f.K != k {
			continue
		}
		f.done = true
		if f.Kind == KindPanic {
			return 0, true
		}
		return f.Delay, false
	}
	return 0, false
}

// RebindFault consults the plan at a rebind boundary, after completed
// iterations: the first pending rebind-abort fault with K <= completed is
// consumed and true returned. Called by the engine's main goroutine only.
func (p *Plan) RebindFault(completed int64) bool {
	if p == nil {
		return false
	}
	for _, f := range p.rebinds {
		if !f.done && f.K <= completed {
			f.done = true
			return true
		}
	}
	return false
}

// Injected counts faults that have fired so far.
func (p *Plan) Injected() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, fs := range p.byNode {
		for _, f := range fs {
			if f.done {
				n++
			}
		}
	}
	for _, f := range p.rebinds {
		if f.done {
			n++
		}
	}
	return n
}

// Pending counts faults not yet fired.
func (p *Plan) Pending() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, fs := range p.byNode {
		n += len(fs)
	}
	return n + len(p.rebinds) - p.Injected()
}
