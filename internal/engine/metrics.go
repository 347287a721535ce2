package engine

import (
	"strconv"
	"strings"

	"repro/tpdf/obs"
)

// Metrics follow the barrier-harvest rule: every hot counter is written
// with plain stores by exactly one goroutine (the context that owns the
// actor for actorState and ctxHot, the context of the producing or
// consuming actor for sideStats) and read only by the engine's main
// goroutine at transaction barriers, after the last context out of the
// epoch has signalled drained — the pending countdown and that signal are
// the happens-before edge, so no atomics and no locks appear on the firing
// path. Each struct is padded to its own cache line so two contexts bumping
// their counters never write-share a line.

// cacheLine is the padding granularity; 128 covers the spatial prefetcher
// pairing lines on common x86 parts.
const cacheLine = 128

// ctxHot is one execution context's sampled active time. It is sampled, not
// exhaustive: runTimed times one epoch in activeSampleMask+1 (always
// including the first), because a clock read costs ~50-100ns on virtualized
// hosts — per-epoch pairs would dominate barrier-heavy runs. epochs counts
// every dispatch, timed the sampled ones, activeNs the wall time inside
// sampled epochs only; the harvest scales activeNs by epochs/timed to
// estimate the total and apportions it to the context's actors by firing
// share (all of it to the one actor of a per-actor context).
type ctxHot struct {
	epochs   int64
	timed    int64
	activeNs int64
	_        [cacheLine - 3*8]byte
}

// activeEstNs scales the sampled epoch time up to an estimate covering
// every epoch the context ran.
func (ch *ctxHot) activeEstNs() int64 {
	if ch.timed > 0 && ch.epochs > ch.timed {
		return ch.activeNs * ch.epochs / ch.timed
	}
	return ch.activeNs
}

// activeSampleMask selects which epochs runTimed times: epoch indices
// with (epochs & mask) == 0, i.e. one in mask+1.
const activeSampleMask = 7

// sideStats is one side (producer or consumer) of one ring. The producer
// side also tracks the occupancy high-water mark, observed at publish.
// Blocked time is sampled like actor active time: one park in
// parkSampleMask+1 is timed (parks counts all of them, timedParks the
// sampled ones) and the harvest scales blockedNs by parks/timedParks —
// in a pipelining chain parks are frequent and individually cheap, so a
// clock-read pair around every one would cost more than the park itself.
type sideStats struct {
	parks      int64
	timedParks int64
	spins      int64
	wakes      int64
	blockedNs  int64
	highWater  int64
	_          [cacheLine - 6*8]byte
}

// parkSampleMask selects which parks a ring side times: park indices with
// (parks & mask) == 0, i.e. one in mask+1.
const parkSampleMask = 7

// engMetrics is the engine-owned collector: hot blocks for every context
// and ring side (the per-actor counters live in engine.actors), plus the
// main-goroutine-owned boundary counters, kept in published form in tot
// (its Actors and Edges are unused). harvestFn is the one closure handed to
// Registry.UpdateEngine, created once so a barrier-time harvest allocates
// nothing.
type engMetrics struct {
	reg   *obs.Registry
	ctxs  []ctxHot
	prod  []sideStats // indexed by concrete edge
	cons  []sideStats
	tot   obs.EngineSnapshot
	grows []int64
	// named: the snapshot holds this run's names; edgesStale: its edge
	// fields need a refresh (see fillSnapshot).
	named, edgesStale bool

	harvestFn func(*obs.EngineSnapshot)
}

// blockedEstNs scales the sampled park time up to an estimate covering
// every park this side performed.
func (st *sideStats) blockedEstNs() int64 {
	if st.timedParks > 0 && st.parks > st.timedParks {
		return st.blockedNs * st.parks / st.timedParks
	}
	return st.blockedNs
}

// newEngMetrics sizes the collector for the engine's wired graph and
// attaches the ring side pointers. A resumed run counts as one restore and
// continues the counters the previous incarnation left in the registry
// (zero in a fresh one); actor firings are the engine's own counts, which
// start from the checkpoint's — the aborted epoch's are not part of the
// state — so the final snapshot equals Result.Firings.
func (e *engine) newEngMetrics(reg *obs.Registry, resume *Checkpoint) *engMetrics {
	m := &engMetrics{
		reg:   reg,
		ctxs:  make([]ctxHot, len(e.work)+1),
		prod:  make([]sideStats, len(e.cg.Edges)),
		cons:  make([]sideStats, len(e.cg.Edges)),
		grows: make([]int64, len(e.cg.Edges)),
	}
	if resume != nil {
		prev := reg.EngineSnapshot()
		if len(prev.Edges) == len(m.grows) {
			for ci := range m.grows {
				m.grows[ci] = prev.Edges[ci].Grows
			}
		}
		m.tot = prev
		m.tot.Restores++
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
	m.harvestFn = e.fillSnapshot
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

// harvest publishes the current counters into the registry. Called by the
// engine's main goroutine only, at transaction barriers and run start/end,
// when every context is parked.
func (e *engine) harvest(completed int64, running bool) {
	m := e.mx
	if m == nil {
		return
	}
	m.tot.Completed = completed
	m.tot.Running = running
	m.reg.UpdateEngine(m.harvestFn)
}

// fillSnapshot copies the collector into the registry's snapshot in place,
// reusing the snapshot's slices after the first harvest. The run's first
// harvest writes the names (and the wait counters, which stay zero under one
// context); after that a one-context boundary rewrites only what an epoch
// moves — the totals and each actor's counters — and the edges when
// edgesStale says a commit or soloPeaks changed them. Occupancy needs no
// refresh in between: an iteration returns every edge to it.
func (e *engine) fillSnapshot(s *obs.EngineSnapshot) {
	m := e.mx
	g := e.cfg.Graph
	actors, edges := s.Actors, s.Edges
	if len(actors) != len(g.Nodes) {
		actors = make([]obs.ActorMetrics, len(g.Nodes))
	}
	if len(edges) != len(e.cg.Edges) {
		edges = make([]obs.EdgeMetrics, len(e.cg.Edges))
	}
	*s = m.tot
	s.Actors, s.Edges = actors, edges
	if !m.named {
		for id := range g.Nodes {
			s.Actors[id] = obs.ActorMetrics{Name: g.Nodes[id].Name}
		}
		for ci := range s.Edges {
			s.Edges[ci] = obs.EdgeMetrics{Name: e.edgeName[ci], Producer: e.edgeProd[ci], Consumer: e.edgeCons[ci]}
		}
		m.named, m.edgesStale = true, true
	}

	if !e.perActor {
		// One context holding every actor splits its active time by firing
		// share; every ring of it is solo, so nothing ever waited.
		var ctxFirings int64
		for id := range e.actors {
			ctxFirings += e.actors[id].fired
		}
		var perFiring float64
		if ctxFirings > 0 {
			perFiring = float64(m.ctxs[0].activeEstNs()) / float64(ctxFirings)
		}
		for id := range s.Actors {
			a, h := &s.Actors[id], &e.actors[id]
			a.Firings, a.TokensIn, a.TokensOut = h.fired, h.tokensIn, h.tokensOut
			a.BusyNs = int64(perFiring * float64(h.fired))
		}
	} else {
		for id := range s.Actors {
			a, h := &s.Actors[id], &e.actors[id]
			a.Firings, a.TokensIn, a.TokensOut = h.fired, h.tokensIn, h.tokensOut
			a.Parks, a.Spins, a.Wakes, a.BlockedNs = 0, 0, 0, 0
			// Ring waits are attributed to the actor that performed them:
			// the consumer side of its input edges, the producer side of
			// its output edges.
			for _, pe := range e.ins[id] {
				c := &m.cons[pe.edge]
				a.Parks += c.parks
				a.Spins += c.spins
				a.Wakes += c.wakes
				a.BlockedNs += c.blockedEstNs()
			}
			for _, pe := range e.outs[id] {
				p := &m.prod[pe.edge]
				a.Parks += p.parks
				a.Spins += p.spins
				a.Wakes += p.wakes
				a.BlockedNs += p.blockedEstNs()
			}
			if a.BusyNs = m.ctxs[id].activeEstNs() - a.BlockedNs; a.BusyNs < 0 {
				a.BusyNs = 0
			}
		}
		m.edgesStale = true
	}
	if !m.edgesStale && s.Running {
		return
	}
	m.edgesStale = false
	for ci := range s.Edges {
		ed := &s.Edges[ci]
		r := e.rings[ci]
		ed.Capacity = r.cap()
		ed.Occupancy = r.len()
		ed.HighWater = m.prod[ci].highWater
		ed.Grows = m.grows[ci]
		ed.ProdBlockedNs = m.prod[ci].blockedEstNs()
		ed.ConsBlockedNs = m.cons[ci].blockedEstNs()
		ed.ProdParks = m.prod[ci].parks
		ed.ConsParks = m.cons[ci].parks
	}
}

// record appends a journal event when tracing is enabled; no-op otherwise.
func (e *engine) record(ev obs.Event) {
	if e.jr != nil {
		e.jr.Record(ev)
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
