// Package obs is the observability surface of the tpdf runtime: a
// Registry of streaming-engine counters, a bounded transaction-trace
// Journal, latency Histograms, and a hand-rolled Prometheus text-exposition
// writer — everything tpdf-serve's /metrics endpoint and the facade's
// WithMetrics / WithTraceJournal options are built from.
//
// The counters follow the engine's barrier-harvest rule: the goroutine that
// fires an actor updates cache-line-padded private counters with plain
// stores on its own hot path (no atomics, no locks, no allocations) and the
// engine copies them into the Registry only at transaction barriers, where
// every actor is parked and the epoch barrier provides the happens-before
// edge. Readers
// therefore see a consistent snapshot that is at most one transaction old,
// and the warm firing path stays 0 allocs/op with metrics enabled.
package obs

import "sync"

// ActorMetrics is one actor's counters as of the last harvest. Firings and
// token counts are exact; the time and park/spin/wake counters attribute
// each ring wait to the actor that performed it.
type ActorMetrics struct {
	Name string
	// Firings completed and tokens moved since the run started.
	Firings   int64
	TokensIn  int64
	TokensOut int64
	// BusyNs estimates time spent firing (consume + behavior + produce)
	// minus time blocked in ring waits; BlockedNs is the blocked share.
	// Active time is sampled at epoch granularity per engine goroutine (one
	// epoch in eight is timed and the total scaled up); when one goroutine
	// fires every actor in schedule order — Stream's default — its active
	// time is apportioned to the actors by firing share, so a heavy behavior
	// and a trivial one that fire equally often read the same. Blocked time
	// covers only actual channel parks — both exclude time parked at
	// transaction barriers, and BusyNs is an estimate, not an exact
	// measurement.
	BusyNs    int64
	BlockedNs int64
	// Parks counts ring waits that parked on a wake channel; Spins counts
	// waits resolved by spinning/yielding without a park; Wakes counts
	// wakeups this actor issued to a parked peer.
	Parks int64
	Spins int64
	Wakes int64
}

// EdgeMetrics is one edge's ring gauges as of the last harvest.
type EdgeMetrics struct {
	Name     string
	Producer string
	Consumer string
	// Capacity and Occupancy are the ring's token capacity and content at
	// the harvest barrier; HighWater is the largest occupancy ever
	// observed at a publish (including the initial-token seed).
	Capacity  int64
	Occupancy int64
	HighWater int64
	// Grows counts barrier-time capacity growths (reconfigurations whose
	// new schedule needed a larger ring).
	Grows int64
	// Blocked/park split per side: the producer waits for free space, the
	// consumer waits for published tokens.
	ProdBlockedNs int64
	ConsBlockedNs int64
	ProdParks     int64
	ConsParks     int64
}

// EngineSnapshot is the full engine view published at each transaction
// barrier.
type EngineSnapshot struct {
	// Running is true between run start and the final harvest.
	Running bool
	// Completed counts finished graph iterations; Barriers counts
	// transaction boundaries crossed (epoch dispatches).
	Completed int64
	Barriers  int64
	// Rebinds counts boundaries that changed parameters; RebindNs is the
	// total time spent rebinding (rate tables, schedule, ring growth).
	// BoundaryNs is total time in boundary work overall — hooks included,
	// so a session parked between requests accrues it. RowsBuilt counts the
	// changed boundaries that had to bind and schedule their valuation (a
	// first visit, or a re-build after eviction or at another occupancy): a
	// run cycling among scenarios shows Rebinds ≫ RowsBuilt, a sweep equal.
	Rebinds    int64
	RowsBuilt  int64
	RebindNs   int64
	BoundaryNs int64
	// Aborts counts discarded transactions (epochs torn down by a behavior
	// panic, rebinds rejected by validation); Restores counts run starts
	// resumed from a checkpoint. Both keep counting across the
	// incarnations of a run that share this registry.
	Aborts   int64
	Restores int64
	Actors   []ActorMetrics
	Edges    []EdgeMetrics
}

// Registry is the shared rendezvous between one streaming engine run and
// any number of readers. Writers integrate via UpdateEngine at barriers;
// readers take consistent copies via EngineSnapshot. A Registry is
// typically per-session (tpdf/serve creates one per Stream engine) so
// series never mix runs.
type Registry struct {
	mu     sync.Mutex
	engine EngineSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// UpdateEngine runs mutate with the registry locked. This is the engine's
// harvest hook: the engine keeps one long-lived closure and fills the
// snapshot in place, so a barrier-time harvest performs no allocations.
// mutate must not retain the snapshot past the call.
func (r *Registry) UpdateEngine(mutate func(*EngineSnapshot)) {
	r.mu.Lock()
	mutate(&r.engine)
	r.mu.Unlock()
}

// EngineSnapshot returns a deep copy of the last harvested engine state,
// safe to hold and read without further synchronization.
func (r *Registry) EngineSnapshot() EngineSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.engine
	s.Actors = append([]ActorMetrics(nil), r.engine.Actors...)
	s.Edges = append([]EdgeMetrics(nil), r.engine.Edges...)
	return s
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
