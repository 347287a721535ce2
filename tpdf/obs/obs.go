// Package obs is the observability surface of the tpdf runtime: a
// Registry — one per run, holding the streaming engine's counters and a
// bounded ring of its transaction-boundary records — latency Histograms,
// and a hand-rolled Prometheus text-exposition writer. tpdf-serve's
// /metrics and /v1/sessions/{id}/trace endpoints and the facade's
// WithMetrics option are built from it.
//
// The per-actor and per-edge counters follow the engine's barrier-harvest
// rule: the goroutine that fires an actor updates cache-line-padded private
// counters with plain stores on its own hot path (no atomics, no locks, no
// allocations) and the engine copies them into the Registry only at
// transaction barriers, where every actor is parked and the epoch barrier
// provides the happens-before edge. The boundary totals are not harvested:
// they are sums of the records the engine hands the Registry, so the
// counters and the trace cannot disagree. Readers see a consistent
// snapshot that is at most one transaction old, and the warm firing path
// stays 0 allocs/op with metrics enabled.
package obs

import (
	"sync"
	"time"
)

// ActorMetrics is one actor's counters as of the last harvest.
type ActorMetrics struct {
	Name string
	// Firings completed and tokens produced since the run started.
	Firings   int64
	TokensOut int64
	// Parks counts ring waits this actor parked in; Wakes counts wakeups
	// it issued to a parked peer. Both stay zero under one context, whose
	// rings never wait.
	Parks int64
	Wakes int64
}

// EdgeMetrics is one edge's ring gauges as of the last harvest.
type EdgeMetrics struct {
	Name string
	// Capacity and Occupancy are the ring's token capacity and content at
	// the harvest barrier; HighWater is the largest occupancy ever
	// observed at a publish (including the initial-token seed).
	Capacity  int64
	Occupancy int64
	HighWater int64
	// Grows counts barrier-time capacity growths (reconfigurations whose
	// new schedule needed a larger ring).
	Grows int64
}

// EngineSnapshot is the full engine view: Completed, Actors and Edges as
// harvested at the last transaction barrier, and the boundary totals
// summed from the records handed to Record.
type EngineSnapshot struct {
	// Completed counts finished graph iterations; Barriers counts
	// transaction boundaries crossed (epoch dispatches, EvBarrier).
	Completed int64
	Barriers  int64
	// Rebinds counts boundaries that changed parameters (EvRebind);
	// RebindNs is the total time spent rebinding (rate tables, schedule,
	// ring growth). BoundaryNs is total time in boundary work overall —
	// hooks included, so a session parked between requests accrues it.
	// RowsBuilt counts the rebinds that had to bind and schedule their
	// valuation (Detail RowBuilt: a first visit, or a re-build after
	// eviction or at another occupancy): a run cycling among scenarios
	// shows Rebinds ≫ RowsBuilt, a sweep equal.
	Rebinds    int64
	RowsBuilt  int64
	RebindNs   int64
	BoundaryNs int64
	// Aborts counts discarded transactions (EvAbort: epochs torn down by a
	// behavior panic, rebinds rejected by validation); Restores counts run
	// starts resumed from a checkpoint (EvRestore). Both keep counting
	// across the incarnations of a run that share this registry.
	Aborts   int64
	Restores int64
	Actors   []ActorMetrics
	Edges    []EdgeMetrics
}

// RowBuilt is the Detail of an EvRebind whose valuation had to be bound
// and scheduled; the other rebinds revisit a scenario row ("row=hit").
const RowBuilt = "row=built"

// traceCap bounds the records a Registry retains.
const traceCap = 256

// Registry is the one observability sink of a streaming run and the
// rendezvous between it and any number of readers. The engine records its
// boundary records with Record and harvests its per-actor and per-edge
// counters with UpdateEngine; readers take consistent copies with
// EngineSnapshot and Events. A Registry is per session (tpdf/serve creates
// one per session) so series never mix runs, and it is safe to leave
// attached forever: the newest traceCap records are kept, older ones
// overwritten, and recording is O(1) with no allocation.
type Registry struct {
	mu     sync.Mutex
	engine EngineSnapshot
	// events is the record ring: record n lives at n % traceCap, and total
	// counts every record ever made.
	events [traceCap]Event
	total  int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Record appends evs in order under one lock, overwriting the oldest when
// full, and adds each to the totals it counts toward. A zero TimeUnixNano
// is stamped with the current wall clock.
func (r *Registry) Record(evs ...Event) {
	r.mu.Lock()
	r.record(evs)
	r.mu.Unlock()
}

// record is the one place a record enters the registry: the trace ring
// and the totals are updated together. r.mu is held.
func (r *Registry) record(evs []Event) {
	s := &r.engine
	for _, e := range evs {
		if e.TimeUnixNano == 0 {
			e.TimeUnixNano = time.Now().UnixNano()
		}
		r.events[r.total%traceCap] = e
		r.total++
		switch e.Kind {
		case EvBarrier:
			s.Barriers++
			s.BoundaryNs += e.DurNs
		case EvRebind:
			s.Rebinds++
			s.RebindNs += e.DurNs
			if e.Detail == RowBuilt {
				s.RowsBuilt++
			}
		case EvAbort:
			s.Aborts++
		case EvRestore:
			s.Restores++
		}
	}
}

// UpdateEngine records evs as Record does and then runs mutate, under one
// lock. This is the engine's harvest: it hands over the records of the
// boundaries since the last harvest and fills Completed, Actors and Edges
// in place with one long-lived closure, so a barrier-time harvest performs
// no allocations. mutate must not retain the snapshot past the call.
func (r *Registry) UpdateEngine(mutate func(*EngineSnapshot), evs ...Event) {
	r.mu.Lock()
	r.record(evs)
	mutate(&r.engine)
	r.mu.Unlock()
}

// EngineSnapshot returns a deep copy of the engine state, safe to hold and
// read without further synchronization.
func (r *Registry) EngineSnapshot() EngineSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.engine
	s.Actors = append([]ActorMetrics(nil), r.engine.Actors...)
	s.Edges = append([]EdgeMetrics(nil), r.engine.Edges...)
	return s
}

// Events returns the retained records oldest-first.
func (r *Registry) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.total, traceCap)
	out := make([]Event, 0, n)
	for i := r.total - n; i < r.total; i++ {
		out = append(out, r.events[i%traceCap])
	}
	return out
}

// ParamsDigest hashes a parameter valuation into a stable 64-bit digest,
// order-independently (per-entry FNV-1a mixed by XOR) and without
// allocating — it is safe on the engine's barrier path. Two valuations
// with the same key/value pairs digest identically; the digest is for
// change detection in traces, not cryptography.
func ParamsDigest(params map[string]int64) uint64 {
	var d uint64
	for k, v := range params {
		d ^= BindingDigest(k, v)
	}
	return d
}

// BindingDigest hashes one parameter binding. Because ParamsDigest is the
// XOR of its bindings' digests, a caller tracking a valuation can update a
// cached digest incrementally when one parameter changes —
// d ^= BindingDigest(k, old) ^ BindingDigest(k, new) — instead of
// re-iterating the whole map (the engine does this at rebind boundaries,
// where a map iteration per rebind would be a measurable overhead).
func BindingDigest(k string, v int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(v>>(8*i)) & 0xff
		h *= prime64
	}
	return h
}
