// Package serve is the multi-tenant streaming + analysis service tier: it
// hosts a fleet of persistent tpdf.Stream engines (session-per-client,
// graph-per-tenant), coalesces batch Analyze/Sweep requests onto a bounded
// worker budget, and keeps the whole fleet within fixed resource bounds via
// admission control (bounded session slots, per-tenant quotas — saturation
// is answered with a rejection, never with unbounded memory growth).
//
// The enabling piece is the shared compiled-program cache: sessions of the
// same graph share one immutable tpdf.CompiledGraph (compiled and analyzed
// exactly once, however many sessions race to open it) and each stamps its
// own small mutable rate state, so the engine's single-writer rule holds
// per session while compilation cost is paid once per graph.
//
// A session's engine is consulted only where a client needs it: a pump of
// N iterations runs as one engine epoch — one dispatch, one quiescent
// barrier, one checkpoint and, on a durable server, one flushed snapshot —
// and is acknowledged at the boundary that ends it. Session.Completed,
// GET /v1/sessions/{id} and /metrics therefore advance at those consulted
// boundaries (pump ends), not per iteration; a drain cuts the epoch in
// flight short at the next iteration boundary and acks the partial count.
// A behavior panic in the middle of a pump restarts the engine from the
// pump's opening cut and replays the whole pump: the client sees one ack,
// later.
//
// cmd/tpdf-serve exposes the server over HTTP; cmd/tpdf-loadgen soaks it
// and reports per-endpoint latency percentiles.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/rat"
	"repro/tpdf"
)

// cacheEntry is one graph's compile product. The once gate means N racing
// sessions of a new graph trigger exactly one Compile+Analyze; the losers
// block until it lands and then share the result.
type cacheEntry struct {
	once     sync.Once
	compiled *tpdf.CompiledGraph
	report   *tpdf.Report
	err      error
}

// CacheStats is a point-in-time snapshot of program-cache effectiveness.
type CacheStats struct {
	// Entries is the number of distinct graphs resident.
	Entries int `json:"entries"`
	// Compiles counts actual compilations — the cache's whole point is
	// that this stays at one per distinct graph however many sessions
	// open it.
	Compiles int64 `json:"compiles"`
	// Hits counts lookups served from an existing entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that created the entry (== Compiles unless a
	// compilation failed and was retried).
	Misses int64 `json:"misses"`
	// Rejected counts lookups refused because the cache was at capacity —
	// the admission-control signal that clients are submitting more
	// distinct graphs than the server is provisioned for.
	Rejected int64 `json:"rejected"`
}

// ProgramCache shares compile products across sessions, keyed by the
// canonical textual form of the graph (tpdf.Format round-trips, so two
// structurally identical graphs — however they were built — share one
// entry). Entries are immutable once compiled; the cache is safe for
// arbitrary concurrent use. Capacity is bounded: inserting beyond max
// distinct graphs is refused, keeping the server's memory proportional to
// the configured limit instead of to client creativity.
type ProgramCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry

	compiles atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	rejected atomic.Int64
}

// NewProgramCache builds a cache bounded to max distinct graphs (<= 0
// means 1024).
func NewProgramCache(max int) *ProgramCache {
	if max <= 0 {
		max = 1024
	}
	return &ProgramCache{max: max, entries: map[string]*cacheEntry{}}
}

// Get returns the shared compile product and admission report for g,
// compiling and analyzing it exactly once per distinct graph. The report
// is produced at the graph's default valuation; admission control reads
// its Bounded verdict.
func (c *ProgramCache) Get(g *tpdf.Graph) (*tpdf.CompiledGraph, *tpdf.Report, error) {
	key := tpdf.Format(g)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= c.max {
			c.mu.Unlock()
			c.rejected.Add(1)
			return nil, nil, fmt.Errorf("%w: program cache holds %d distinct graphs", ErrBusy, c.max)
		}
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()

	e.once.Do(func() {
		c.compiles.Add(1)
		e.compiled, e.err = tpdf.Compile(g)
		if e.err != nil {
			return
		}
		// Analyze through the *cached* source graph so sessions and report
		// agree on one canonical instance, and so the static verdict is
		// computed once per graph, not once per admission.
		e.report = tpdf.Analyze(e.compiled.Graph())
		// An analysis that could not be carried out (coefficient overflow)
		// is not a verdict: hold it like a failed compile.
		if errors.Is(e.report.Err, rat.ErrOverflow) {
			e.err = fmt.Errorf("%w: %w", ErrNotAdmissible, e.report.Err)
		}
	})
	if e.err != nil {
		// Leave the failed entry resident: recompiling a broken graph per
		// request would let a hostile client buy a compilation per call.
		return nil, nil, e.err
	}
	return e.compiled, e.report, nil
}

// Stats snapshots the cache counters.
func (c *ProgramCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Entries:  n,
		Compiles: c.compiles.Load(),
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Rejected: c.rejected.Load(),
	}
}
