package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// Verdict is a boundary hook's answer at a transaction boundary. The one
// rule: parameters change only at consulted boundaries, and a verdict
// promises no change for Run iterations — so the engine runs them as a
// single epoch (one dispatch, one barrier wait, one harvest) before it
// asks again.
type Verdict struct {
	// Params are parameter overrides applied at this boundary, before the
	// epoch starts; nil or empty keeps the environment.
	Params map[string]int64
	// Run is how many iterations the hook is not needed for. Values below
	// 1 mean 1; values beyond the run's remaining iterations are clamped.
	Run int64
	// Stop ends the run cleanly at this boundary (Params and Run are
	// ignored): actors stay parked, leftover tokens are reported in the
	// Result, no error is raised.
	Stop bool
	// Cut, when non-nil, lets the hook take the promise back: once it is
	// closed (or receives), the epoch in flight ends at the earliest
	// iteration boundary every actor can still reach and the hook is
	// consulted there with the true completed count — which may be the
	// epoch's opening count when no actor had started yet. Context 0 (the
	// goroutine that called Run) looks at Cut when it starts an iteration,
	// so a one-context epoch ends exactly at the iteration after the one
	// that saw Cut fire. A nil Cut costs the firing path nothing; a non-nil
	// one costs each execution context an atomic store and load per
	// iteration, and context 0 a non-blocking receive.
	Cut <-chan struct{}
}

// Hook resolves the three spellings of the boundary hook into the one Run
// (or a supervisor wrapping it) consults, nil when none is set: Boundary
// itself, or Barrier / Reconfigure adapted to verdicts of one iteration.
func (cfg *Config) Hook() (func(completed int64) Verdict, error) {
	set := 0
	for _, on := range [...]bool{cfg.Boundary != nil, cfg.Barrier != nil, cfg.Reconfigure != nil} {
		if on {
			set++
		}
	}
	if set > 1 {
		return nil, fmt.Errorf("engine: Boundary, Barrier and Reconfigure are mutually exclusive")
	}
	switch {
	case cfg.Barrier != nil:
		barrier := cfg.Barrier
		return func(completed int64) Verdict {
			params, stop := barrier(completed)
			return Verdict{Params: params, Run: 1, Stop: stop}
		}, nil
	case cfg.Reconfigure != nil:
		// Reconfigure keeps its documented contract: consulted only at
		// boundaries with at least one completed iteration, never stopping
		// the run.
		reconf := cfg.Reconfigure
		return func(completed int64) Verdict {
			if completed == 0 {
				return Verdict{Run: 1}
			}
			return Verdict{Params: reconf(completed), Run: 1}
		}, nil
	}
	return cfg.Boundary, nil
}

// boundary is the transaction-boundary protocol of one Run: it owns the
// active valuation and its digest, the undo log of one boundary's parameter
// overwrites, the boundary's clock reads and records, and the cut
// taken before the hook. Only the engine's main goroutine touches it, and
// only while every context is parked.
type boundary struct {
	e    *engine
	hook func(completed int64) Verdict
	// env is the active valuation; digest identifies it on rebind events
	// and in checkpoints. The digest is maintained incrementally (XOR out
	// the old binding, XOR in the new) because re-hashing the whole map at
	// every rebind boundary costs a map iteration per barrier.
	env    symb.Env
	digest uint64
	// iters is the run's total iteration target.
	iters int64
	// armed: checkpoints are captured; obsOn: a registry is attached;
	// digestOn: someone reads the digest.
	armed, obsOn, digestOn bool
	// undo journals one boundary's parameter overwrites so an aborted
	// rebind restores the previous valuation without allocating.
	undo []prevBind
}

// prevBind is one recorded parameter overwrite: key, previous value, and
// whether the key existed before the boundary.
type prevBind struct {
	k   string
	v   int64
	had bool
}

func (e *engine) newBoundary(hook func(int64) Verdict, env symb.Env, iters int64) boundary {
	b := boundary{e: e, hook: hook, env: env, iters: iters,
		armed: e.ckpt != nil, obsOn: e.mx != nil}
	b.digestOn = (b.obsOn && hook != nil) || b.armed
	if b.digestOn {
		b.digest = obs.ParamsDigest(map[string]int64(env))
	}
	return b
}

// capture cuts a checkpoint of the quiescent engine under the boundary's
// valuation, when capture is armed.
func (b *boundary) capture(completed int64) {
	if b.armed {
		b.e.capture(completed, b.env, b.digest)
	}
}

// epochs is the run's transaction loop from start completed iterations to
// the target: consult the hook, run the epoch its verdict allows, harvest,
// repeat. Without a hook the whole run is one epoch behind one boundary. A
// resumed run is no special case: its first boundary is the one its cut was
// taken at.
func (b *boundary) epochs(start int64) (int64, error) {
	e := b.e
	if b.hook == nil {
		b.capture(start)
		if b.iters > start {
			e.record(obs.Event{Kind: obs.EvBarrier, Completed: start})
			if _, err := e.runEpoch(b.iters-start, start, nil); err != nil {
				return start, err
			}
		}
		return b.iters, nil
	}
	completed := start
	for completed < b.iters {
		v, err := b.cross(completed)
		if err != nil {
			return completed, err
		}
		if v.Stop {
			break
		}
		ran, err := e.runEpoch(v.Run, completed, v.Cut)
		if err != nil {
			return completed, err
		}
		completed += ran
		e.harvest(completed, true)
	}
	return completed, nil
}

// cross runs one consulted boundary at `it` completed iterations, in
// order: cut → hook → (changed parameters: rebind, validate, commit or
// undo). The returned verdict's Run is clamped to what the epoch will
// actually run.
//
// Clock discipline: a clock read costs ~50-100ns on virtualized hosts, so
// the boundary takes at most three (before the hook, before a rebind, at
// the end), each a monotonic offset from the run's clock anchor
// (engine.clock) rather than a wall-clock time.Now; every record is stamped
// from the last one, and the boundary's records reach the registry with the
// next harvest, under its one lock.
func (b *boundary) cross(it int64) (Verdict, error) {
	e := b.e
	b.capture(it)
	var bt int64
	if b.obsOn {
		bt = e.clock()
	}
	v := b.hook(it)
	if v.Stop {
		// Clean drain at the quiescent boundary: actors are parked,
		// leftover tokens stay on their edges and are reported in the
		// Result.
		e.record(obs.Event{Kind: obs.EvDrain, Completed: it})
		return v, nil
	}
	// A hook may have blocked across a cancellation; don't start another
	// epoch on a dead run (runEpoch would catch it, but the rebind below
	// must not run either).
	if err := e.firstErr(); err != nil {
		return v, err
	}
	v.Run = min(max(v.Run, 1), b.iters-it)
	end, err := b.apply(v.Params, it)
	if err != nil {
		return v, err
	}
	if b.obsOn {
		// A committed rebind's closing read is the boundary's too.
		if end == 0 {
			end = e.clock()
		}
		e.record(obs.Event{TimeUnixNano: e.clock0Unix + end, Kind: obs.EvBarrier, Completed: it, DurNs: end - bt})
	}
	return v, nil
}

// apply merges the hook's overrides into the valuation and, when any
// binding actually changed, reconfigures the engine speculatively: a
// rejected rebind is undone and reported (fatal unless OnRebindAbort is
// set). When observed, a committed rebind returns its closing clock offset,
// which is the boundary's closing read too (0 otherwise).
func (b *boundary) apply(over map[string]int64, it int64) (end int64, _ error) {
	e := b.e
	b.undo = b.undo[:0]
	for k, v := range over {
		if old, ok := b.env[k]; !ok || old != v {
			b.undo = append(b.undo, prevBind{k, old, ok})
			if b.digestOn {
				if ok {
					b.digest ^= obs.BindingDigest(k, old)
				}
				b.digest ^= obs.BindingDigest(k, v)
			}
			b.env[k] = v
		}
	}
	if len(b.undo) == 0 {
		return 0, nil
	}
	e.ckptParamsStale = true
	var rt int64
	if b.obsOn {
		rt = e.clock()
	}
	built, err := e.reconfigure(b.env, it)
	if err != nil {
		// A refused valuation (every refusal is an ErrRebindAborted) never
		// touched the committed row: only the valuation is restored —
		// replaying the recorded bindings through the XOR digest undoes it.
		for _, pb := range b.undo {
			if b.digestOn {
				b.digest ^= obs.BindingDigest(pb.k, b.env[pb.k])
				if pb.had {
					b.digest ^= obs.BindingDigest(pb.k, pb.v)
				}
			}
			if pb.had {
				b.env[pb.k] = pb.v
			} else {
				delete(b.env, pb.k)
			}
		}
		e.record(obs.Event{Kind: obs.EvAbort, Completed: it,
			ParamsDigest: b.digest, Detail: "rebind"})
		if e.cfg.OnRebindAbort == nil {
			return 0, err
		}
		e.cfg.OnRebindAbort(err)
		return 0, nil
	}
	if b.obsOn {
		end = e.clock()
		detail := "row=hit"
		if built {
			detail = obs.RowBuilt
		}
		e.record(obs.Event{TimeUnixNano: e.clock0Unix + end, Kind: obs.EvRebind, Completed: it,
			DurNs: end - rt, ParamsDigest: b.digest, Detail: detail})
	}
	return end, nil
}

// maxRows bounds a run's scenario table, and with it the Programs one run
// ever stamps.
const maxRows = 16

// row is one scenario: everything a valuation determines, given the ring
// occupancy its PASS starts from (held in the bound Program's concrete
// edges' Initial). The engine's prog, cg and order are the committed row's.
type row struct {
	key   []int64 // the declared parameters' values, in declaration order
	prog  *core.Program
	order []int   // the PASS; nil while the row is unbound
	caps  []int64 // per-edge ring capacity floor
	peak  []int64 // per-edge occupancy high-water mark of one iteration
	used  int64   // tick of the last commit: the least recent row is recycled
}

// startsFrom reports whether the row's PASS was built from occupancy occ.
func (r *row) startsFrom(occ []int64) bool {
	for ci, n := range occ {
		if r.prog.Concrete().Edges[ci].Initial != n {
			return false
		}
	}
	return true
}

// rowFor returns the row of env at ring occupancy occ: a table hit, or
// (built) a row bound, scheduled and checked now — in a freshly stamped
// Program while the table has room, else in that of a stale row of the same
// valuation, an unbound row or the least recently committed one, never the
// committed row's. A refusal leaves the row unbound and returns the error.
func (e *engine) rowFor(env symb.Env, occ []int64) (_ *row, built bool, _ error) {
	key := e.key[:0]
	for _, p := range e.cfg.Graph.Params {
		key = append(key, env[p.Name])
	}
	e.key = key
	var v *row
	for _, r := range e.rows {
		if r.order != nil && slices.Equal(r.key, key) {
			if r.startsFrom(occ) {
				return r, false, nil
			}
			if r.prog != e.prog {
				r.order, r.used = nil, 0 // stale occupancy: replaced below
			}
		}
		if r.prog != e.prog && (v == nil || r.used < v.used) {
			v = r
		}
	}
	if v == nil || (v.order != nil && len(e.rows) < maxRows) {
		v = &row{prog: e.prog.Skeleton().NewProgram()}
		e.rows = append(e.rows, v)
	}
	v.order, v.used = nil, 0
	v.key = append(v.key[:0], key...)
	if err := v.prog.Rebind(env); err != nil {
		return nil, false, err
	}
	// The PASS — and so the firing order, the capacity bounds and the
	// liveness check — starts from the tokens on the edges now, not the
	// declared initial state. Reusing it for every iteration of an epoch, and
	// the row at every revisit, rests on an iteration returning every edge to
	// its starting occupancy: checked here rather than assumed.
	cg := v.prog.Concrete()
	for ci := range cg.Edges {
		cg.Edges[ci].Initial = occ[ci]
	}
	sch, err := cg.BuildSchedule(v.prog.Solution(), csdf.Demand)
	if err != nil {
		return nil, false, fmt.Errorf("engine: no sequential schedule: %v", err)
	}
	v.caps = v.caps[:0]
	for ci := range cg.Edges {
		if sch.Final[ci] != occ[ci] {
			return nil, false, fmt.Errorf("engine: schedule is not periodic: edge %s holds %d tokens before an iteration and %d after",
				cg.Edges[ci].Name, occ[ci], sch.Final[ci])
		}
		v.caps = append(v.caps, capacityFor(&cg.Edges[ci], sch.MaxTokens[ci]))
	}
	v.order, v.peak = sch.Order, sch.MaxTokens
	return v, true, nil
}

// commit makes r the run's scenario — the only irreversible step of a
// boundary: the engine reads rates, Q and the PASS from it, rings grow (never
// shrink) to its capacities keeping their content — leftover payloads cross
// the boundary in FIFO order — and rate-phase indexing restarts.
func (e *engine) commit(r *row) {
	e.tick++
	r.used = e.tick
	e.prog, e.cg, e.order, e.peak = r.prog, r.prog.Concrete(), r.order, r.peak
	for ci, c := range r.caps {
		before := e.rings[ci].cap()
		e.rings[ci].grow(c)
		if e.mx != nil && e.rings[ci].cap() > before {
			e.mx.grows[ci]++
			e.mx.edgesStale = true
		}
	}
	for id := range e.actors {
		e.actors[id].base = e.actors[id].fired
	}
}

// reconfigure moves the run to env's row at a quiescent transaction
// boundary and reports whether the row had to be built. What a row caches is
// a pure function of (valuation, occupancy); the verdict about *this*
// boundary — an injected fault — is asked at every boundary, hit or miss,
// after the row exists and before the commit.
// Every refusal wraps ErrRebindAborted and leaves the committed row as it
// was.
func (e *engine) reconfigure(env symb.Env, completed int64) (built bool, _ error) {
	for ci, rg := range e.rings {
		e.occ[ci] = rg.len()
	}
	r, built, err := e.rowFor(env, e.occ)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrRebindAborted, err)
	}
	if e.faults.RebindFault(completed) {
		return built, fmt.Errorf("%w: injected validation failure at iteration %d", ErrRebindAborted, completed)
	}
	e.commit(r)
	return built, nil
}

// epochCut is the cooperative protocol that ends an epoch early at an
// iteration boundary common to every context. It is armed only for epochs
// whose verdict carried a Cut.
//
// Each context announces the iteration it is about to start (started, its
// own padded slot) and *then* loads phase; the cutter — context 0, on the
// engine's main goroutine, at the first iteration start that finds Cut
// fired — stores phase = deciding and *then* reads every started slot. Both
// sides are a sequentially-consistent store followed by a load (Dekker), so
// a context that saw phase = running has its announcement visible to the
// cutter, and a context that did not waits the handful of atomics the
// decision takes and then obeys it. The decision is until = max(started):
// the furthest iteration any context has begun, which every other context
// can reach because its peers run that far too — an actor parked in a ring
// wait needs no wake. With one context the maximum is over one slot: the
// epoch ends where the iteration that saw Cut fire would have started.
type epochCut struct {
	armed   bool            // plain: written by main before dispatch, read by contexts after
	ch      <-chan struct{} // the verdict's Cut until it fires; context 0's alone
	phase   atomic.Int32
	until   atomic.Int64
	started []startSlot
}

type startSlot struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

const (
	cutRunning int32 = iota
	cutDeciding
	cutDecided
)

// arm resets the protocol for an epoch of iters iterations over contexts
// contexts, cuttable when ch is non-nil. Called by main while every peer
// context is parked. The slots are allocated by the first cuttable epoch,
// so a run that never carries a Cut never pays for them.
func (c *epochCut) arm(ch <-chan struct{}, iters int64, contexts int) {
	c.armed, c.ch = ch != nil, ch
	if ch == nil {
		return
	}
	if c.started == nil {
		c.started = make([]startSlot, contexts)
	}
	for i := range c.started {
		c.started[i].n.Store(0)
	}
	c.until.Store(iters)
	c.phase.Store(cutRunning)
}

// poll is context 0's look at the verdict's Cut before it enters an
// iteration: the first time Cut has fired, context 0 decides the cut
// itself.
func (c *epochCut) poll() {
	if c.ch == nil {
		return
	}
	select {
	case <-c.ch:
		c.ch = nil
		c.decide()
	default:
	}
}

// enter is context ctx's iteration-start check: it reports whether
// iteration i (0-based within the epoch) is still part of it.
func (c *epochCut) enter(ctx int, i int64) bool {
	c.started[ctx].n.Store(i + 1)
	ph := c.phase.Load()
	if ph == cutRunning {
		return true
	}
	for ph == cutDeciding {
		runtime.Gosched()
		ph = c.phase.Load()
	}
	return i < c.until.Load()
}

// decide ends the epoch at the furthest iteration any context has started.
// Called by context 0, once, while the peers run.
func (c *epochCut) decide() {
	c.phase.Store(cutDeciding)
	var t int64
	for i := range c.started {
		if n := c.started[i].n.Load(); n > t {
			t = n
		}
	}
	c.until.Store(t)
	c.phase.Store(cutDecided)
}
