package engine

import (
	"strconv"
	"strings"

	"repro/tpdf/obs"
)

// Metrics follow the barrier-harvest rule: every hot counter is written
// with plain stores by exactly one goroutine (the context that owns the
// actor for actorState, the context of the producing or consuming actor for
// sideStats) and read only by the engine's main goroutine at transaction
// barriers, after the last context out of the epoch has signalled drained —
// the pending countdown and that signal are the happens-before edge, so no
// atomics and no locks appear on the firing path. Each struct is padded to
// its own cache line so two contexts bumping their counters never
// write-share a line.

// cacheLine is the padding granularity; 128 covers the spatial prefetcher
// pairing lines on common x86 parts.
const cacheLine = 128

// sideStats is one side (producer or consumer) of a ring that crosses
// contexts: the waits it parked in and the wakes it issued. The producer
// side also tracks the occupancy high-water mark, observed at publish.
type sideStats struct {
	parks     int64
	wakes     int64
	highWater int64
	_         [cacheLine - 3*8]byte
}

// engMetrics is the engine-owned collector: the ring sides' hot blocks (the
// per-actor counters live in engine.actors), each edge's grow count, and
// pend, the boundary records made since the last harvest, which the harvest
// hands the registry under the same lock. Only the main goroutine touches
// grows and pend. fillFn is the one closure handed to Registry.UpdateEngine,
// created once so a barrier-time harvest allocates nothing.
type engMetrics struct {
	reg   *obs.Registry
	prod  []sideStats // indexed by concrete edge
	cons  []sideStats
	grows []int64
	pend  []obs.Event
	// completed is the iteration count the next fillSnapshot publishes.
	completed int64
	// named: the snapshot holds this run's names; edgesStale: its edge
	// fields need a refresh (see fillSnapshot).
	named, edgesStale bool

	fillFn func(*obs.EngineSnapshot)
}

// newEngMetrics sizes the collector for the engine's wired graph and
// attaches the ring side pointers. A resumed run continues the grow counts
// the previous incarnation left in the registry; actor firings are the
// engine's own counts, which start from the checkpoint's — the aborted
// epoch's are not part of the state — so the final snapshot equals
// Result.Firings.
func (e *engine) newEngMetrics(reg *obs.Registry, resume *Checkpoint) *engMetrics {
	m := &engMetrics{
		reg:   reg,
		prod:  make([]sideStats, len(e.cg.Edges)),
		cons:  make([]sideStats, len(e.cg.Edges)),
		grows: make([]int64, len(e.cg.Edges)),
	}
	if resume != nil {
		if prev := reg.EngineSnapshot(); len(prev.Edges) == len(m.grows) {
			for ci := range m.grows {
				m.grows[ci] = prev.Edges[ci].Grows
			}
		}
	}
	for ci, r := range e.rings {
		// A solo ring never waits, and soloPeaks keeps its high-water mark,
		// so it carries no per-publish stats.
		if !r.solo {
			r.pst = &m.prod[ci]
			r.cst = &m.cons[ci]
		}
		// Seeded initial tokens are the occupancy before any publish.
		m.prod[ci].highWater = r.len()
	}
	m.fillFn = e.fillSnapshot
	return m
}

// soloPeaks raises every solo ring's high-water mark to the committed
// PASS's after an epoch that ran at least one iteration. Both ends of a solo
// ring are fired by one context in the order of the PASS (or, for a
// self-loop, in its actor's own order), so every iteration replays the
// occupancy trace the schedule was built from, and its peak is the
// schedule's MaxTokens — the mark a per-publish check would have found.
func (e *engine) soloPeaks() {
	for ci, r := range e.rings {
		if st := &e.mx.prod[ci]; r.solo && e.peak[ci] > st.highWater {
			st.highWater = e.peak[ci]
			e.mx.edgesStale = true
		}
	}
}

// record queues a record, stamped now unless it carries its own time, for
// the next harvest when a registry is attached. Main goroutine only, between
// epochs.
func (e *engine) record(ev obs.Event) {
	if e.mx == nil {
		return
	}
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = e.clock0Unix + e.clock()
	}
	e.mx.pend = append(e.mx.pend, ev)
}

// recordNow hands the registry a record made while contexts run — a stall
// diagnosis, from any context or the watchdog — at once.
func (e *engine) recordNow(ev obs.Event) {
	if e.mx != nil {
		e.mx.reg.Record(ev)
	}
}

// harvest hands the registry the queued records and the current counters,
// under one lock. Called by the engine's main goroutine only, at transaction
// barriers and run start/end, when every context is parked; final refreshes
// every edge, whatever an aborted epoch left on the rings.
func (e *engine) harvest(completed int64, final bool) {
	m := e.mx
	if m == nil {
		return
	}
	m.completed = completed
	m.edgesStale = m.edgesStale || final
	m.reg.UpdateEngine(m.fillFn, m.pend...)
	m.pend = m.pend[:0]
}

// fillSnapshot copies the collector into the registry's snapshot in place,
// reusing the snapshot's slices after the first harvest; the boundary totals
// are the registry's own. The run's first harvest writes the names (and the
// wait counters, which stay zero under one context); after that a
// one-context boundary rewrites only what an epoch moves — each actor's
// counters — and the edges when edgesStale says a commit, soloPeaks or the
// final harvest changed them. Occupancy needs no refresh in between: an
// iteration returns every edge to it.
func (e *engine) fillSnapshot(s *obs.EngineSnapshot) {
	m := e.mx
	g := e.cfg.Graph
	s.Completed = m.completed
	if len(s.Actors) != len(g.Nodes) {
		s.Actors = make([]obs.ActorMetrics, len(g.Nodes))
	}
	if len(s.Edges) != len(e.cg.Edges) {
		s.Edges = make([]obs.EdgeMetrics, len(e.cg.Edges))
	}
	if !m.named {
		for id := range g.Nodes {
			s.Actors[id] = obs.ActorMetrics{Name: g.Nodes[id].Name}
		}
		for ci := range s.Edges {
			s.Edges[ci] = obs.EdgeMetrics{Name: e.edgeName[ci]}
		}
		m.named, m.edgesStale = true, true
	}
	for id := range s.Actors {
		a, h := &s.Actors[id], &e.actors[id]
		a.Firings, a.TokensOut = h.fired, h.tokensOut
	}
	if e.perActor {
		// Ring waits are attributed to the actor that performed them: the
		// consumer side of its input edges, the producer side of its output
		// edges.
		for id := range s.Actors {
			a := &s.Actors[id]
			a.Parks, a.Wakes = 0, 0
			for _, pe := range e.ins[id] {
				a.Parks += m.cons[pe.edge].parks
				a.Wakes += m.cons[pe.edge].wakes
			}
			for _, pe := range e.outs[id] {
				a.Parks += m.prod[pe.edge].parks
				a.Wakes += m.prod[pe.edge].wakes
			}
		}
		m.edgesStale = true
	}
	if !m.edgesStale {
		return
	}
	m.edgesStale = false
	for ci := range s.Edges {
		ed, r := &s.Edges[ci], e.rings[ci]
		ed.Capacity, ed.Occupancy = r.cap(), r.len()
		ed.HighWater, ed.Grows = m.prod[ci].highWater, m.grows[ci]
	}
}

// blockedReport describes, from the rings' atomic state only (safe while
// contexts run), which actors are blocked and where — the watchdog's stall
// diagnosis. Returns "" when no ring wait flag is raised.
func (e *engine) blockedReport() string {
	var b strings.Builder
	for ci := range e.rings {
		r := e.rings[ci]
		occ := r.len()
		if r.cwait.Load() {
			if b.Len() > 0 {
				b.WriteString("; ")
			}
			fmtBlocked(&b, e.edgeCons[ci], "waiting for tokens", e.edgeName[ci], occ, r.cap())
		}
		if r.pwait.Load() {
			if b.Len() > 0 {
				b.WriteString("; ")
			}
			fmtBlocked(&b, e.edgeProd[ci], "waiting for space", e.edgeName[ci], occ, r.cap())
		}
	}
	return b.String()
}

// ringReport lists every edge's occupancy/capacity from the rings' atomic
// state (safe while contexts run) — the watchdog's full-pipeline view
// attached to stall errors, where blockedReport covers only edges with a
// raised wait flag.
func (e *engine) ringReport() string {
	var b strings.Builder
	for ci := range e.rings {
		if ci > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.edgeName[ci])
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(e.rings[ci].len(), 10))
		b.WriteByte('/')
		b.WriteString(strconv.FormatInt(e.rings[ci].cap(), 10))
	}
	return b.String()
}

func fmtBlocked(b *strings.Builder, actor, what, edge string, occ, capTok int64) {
	b.WriteString("actor ")
	b.WriteString(actor)
	b.WriteByte(' ')
	b.WriteString(what)
	b.WriteString(" on ")
	b.WriteString(edge)
	b.WriteString(" (")
	b.WriteString(strconv.FormatInt(occ, 10))
	b.WriteByte('/')
	b.WriteString(strconv.FormatInt(capTok, 10))
	b.WriteString(" tokens)")
}
