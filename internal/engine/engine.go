// Package engine executes TPDF graphs at the payload level by walking the
// schedule the analysis proves exists. Its unit of execution is a context:
// a loop that owns a set of actors and fires them in the order of the PASS
// (periodic admissible sequential schedule) of the active valuation, over
// edges wired as single-producer/single-consumer ring buffers that move a
// whole firing's token batch per synchronization. The paper's transaction
// semantics hold throughout — parameter values change only at transaction
// (iteration) boundaries, so no firing ever observes a mixed environment.
//
// The clustering is decided once per Run from Workers. Context 0 always
// runs on the goroutine that called Run. By default (Workers <= 1) it is
// the only context and holds every actor: with the analysis-derived ring
// capacities the next firing of the PASS is always enabled, so every ring
// operation takes its one-atomic-load fast path — nothing spins, parks or
// is handed between goroutines, behaviors run one at a time in schedule
// order, and a default run starts no goroutine of its own. With Workers > 1
// (the caller asked for concurrent behaviors) every actor is its own
// context, contexts 1..n−1 on persistent goroutines, and at most Workers
// behaviors run at once: backpressure from ring capacity, behaviors of
// different nodes overlapping. Both are the same loop, firing body, epoch
// dispatch and cut protocol; a one-actor context's projection of the PASS
// is Q[id] firings of itself. Every ring is always sized from the schedule,
// under either clustering. A ring whose producer and consumer share a
// context (solo: every ring of a one-context run, a self-loop under
// per-actor contexts) never waits — if it would have to, no peer could ever
// end the wait, so the run fails at once with a deadlock diagnosis — and
// only the rings that cross contexts can park, under a stall watchdog.
//
// The engine shares behaviors, firing contexts and results with
// internal/runner, and for any graph the runner completes, engine.Run
// produces the identical Result (same firing counts, same leftover payloads
// in the same FIFO order) under either clustering: every edge has exactly
// one producer and one consumer, each actor's firings happen in order, and
// payload routing depends only on firing indices — a conflict-free (hence
// confluent) system in which every interleaving reaches the same final
// state. The static order is safe because an iteration returns every edge
// to its starting occupancy (asserted where the schedule is built), so one
// PASS is valid for every iteration of an epoch, and every ring holds at
// least its high-water mark (the same analysis-derived bounds Analyze and
// internal/buffer report).
//
// The hot path is allocation-free: peer contexts are spawned once per Run
// and parked at transaction barriers, each actor reuses one runner.Firing
// (maps materialized once; the firing body installs every input slice and
// truncates the output slices it has just written, in place), and the ring
// transport copies interface values without boxing. The graph is
// compiled once (a core.Skeleton) and bound once per scenario: the run keeps
// a small table of rows — a Program stamped from the skeleton and bound at
// one valuation, the PASS built from the rings' occupancy, the ring
// capacities it needs — so a transaction boundary that returns to a
// valuation (at the occupancy its PASS started from) swaps to its row and
// grows rings in place, allocating nothing; only a first visit binds and
// schedules, and past maxRows rows it recycles the least recently committed
// one's Program. The engine is every row's single writer, and rows change
// only while every context is parked.
//
// Fault tolerance rests on the same boundaries: one kind of cut (Checkpoint,
// the quiescent state between two transactions) and one resume rule — the
// hook is consulted at the cut's boundary. Remembering a verdict across a
// restart is the restarting supervisor's business, not the engine's.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// Config configures a concurrent payload run.
type Config struct {
	Graph *core.Graph
	// Skeleton, when non-nil, is the shared compile product to stamp this
	// run's Program from instead of compiling Graph: the skeleton is
	// read-only and may be shared by any number of concurrent runs (a
	// server's program cache compiles each graph once and every session
	// stamps its own Program, preserving the single-writer rule per run).
	// It must have been compiled from Graph; Graph may be nil, in which
	// case the skeleton's source graph is used.
	Skeleton *core.Skeleton
	// Env instantiates the graph's parameters (defaults used when nil).
	Env symb.Env
	// Behaviors maps node names to firing functions, exactly as in
	// runner.Config: nodes without one forward nil payloads at the port
	// rates.
	Behaviors map[string]runner.Behavior
	// Iterations repeats the graph iteration (default 1).
	Iterations int64
	// Context, when non-nil, cancels the run: every blocked ring
	// operation also waits on it, so cancellation interrupts a stalled
	// pipeline, not just the gaps between firings.
	Context context.Context
	// Workers above 1 asks for concurrent behaviors: every actor is its own
	// context, all but one on a goroutine of its own, and at most Workers
	// behaviors execute at once. 0 or 1 keeps one context, which fires every
	// actor on the goroutine that called Run. Ring capacities are the
	// schedule's either way.
	Workers int
	// Boundary is the transaction-boundary hook: it is consulted at
	// boundaries *including before the first iteration* (completed = 0) and
	// its Verdict drives the run — parameter overrides to apply, how many
	// iterations to run before consulting it again, whether to stop, and an
	// optional Cut that ends an epoch in flight early. The one rule:
	// parameters change only at consulted boundaries; a verdict promises
	// none for Run iterations, and the engine runs those as one epoch (one
	// dispatch, one barrier wait, one harvest, one cut) instead of Run of
	// them. A resumed run consults it at its checkpoint's boundary, so it
	// must answer from completed and from what RestoreUser restores (or be
	// wrapped by a supervisor that remembers). The engine drains the pipeline
	// to a quiescent state before consulting the hook, so in-flight firings
	// never observe a mix of old and new parameter values; a boundary whose
	// verdict changes nothing stays in the same engine state, and one that
	// returns to a valuation the run has visited swaps to that scenario's
	// row (no rebind, no schedule rebuild; rings only ever grow). A Stop
	// verdict ends the run cleanly at the boundary: the Result reports the
	// firings and leftover ring contents accumulated so far, and no error is
	// raised — this is how a long-running session drains at a quiescent
	// barrier instead of being cancelled mid-iteration. The hook may block (a
	// session parked between client requests blocks here waiting for the next
	// command); the engine counts boundary work as busy, so a parked session
	// never trips the stall watchdog. A blocking hook must watch the run's
	// Context itself and stop when it is cancelled — the engine cannot
	// interrupt user code. At most one of Boundary, Barrier and Reconfigure
	// may be set.
	Boundary func(completed int64) Verdict
	// Barrier is Boundary with one-iteration verdicts: consulted at every
	// transaction boundary (completed = 0, 1, 2, ...), returning parameter
	// overrides and whether to stop.
	Barrier func(completed int64) (params map[string]int64, stop bool)
	// Reconfigure is Barrier without the completed = 0 boundary and without
	// a stop verdict: called after every completed iteration (1, 2, ...), it
	// may return new parameter values for the remaining iterations; nil or
	// empty keeps the current environment.
	Reconfigure func(completed int64) map[string]int64
	// Metrics, when non-nil, receives per-actor and per-edge counters.
	// Actors update private cache-line-padded blocks with plain stores on
	// the hot path; the engine copies them into the registry only at
	// transaction barriers (and at run start/end), so the warm firing path
	// stays allocation-free and the snapshot is always consistent.
	Metrics *obs.Registry
	// Journal, when non-nil, receives transaction-trace events: run
	// start/end, barrier spans, rebinds (with params digest), drain
	// verdicts and watchdog near-misses. Recording is bounded and
	// allocation-free; the hot firing path never records.
	Journal *obs.Journal
	// CheckpointSink, when non-nil, receives the engine's checkpoint arena
	// after each capture: on entering every consulted boundary — before the
	// hook, so a hook that acknowledges completed work acknowledges only
	// what a cut already covers — and at run end. Checkpointing is armed
	// exactly when a sink, CaptureAtEntry or Resume is set; it never changes
	// the epoch structure, and warm captures reuse the arena, so the firing
	// path stays allocation-free. The pointer is valid only during the call;
	// use Checkpoint.CopyInto or Clone to keep state across calls.
	CheckpointSink func(*Checkpoint)
	// CaptureAtEntry arms capture without a sink (the cuts are taken and
	// dropped): how the capture cost is measured on its own.
	CaptureAtEntry bool
	// Resume, when non-nil, starts the run from a checkpoint instead of
	// the initial token state: ring contents, firing counters and the
	// captured valuation are installed before the first epoch. Iterations
	// is the *total* target — a run resumed at Completed=c performs
	// Iterations-c more iterations, beginning with the boundary at c: its
	// hook is consulted and its rebind applied (and counted) again, so the
	// output is byte-identical to an uninterrupted run of the same length
	// whenever the hook answers at c what it answered there before.
	Resume *Checkpoint
	// OnRebindAbort, when set, makes rebind aborts non-fatal: the abort is
	// reported through it and the run continues under the previous
	// valuation. When nil, an aborted rebind ends the run with the error.
	OnRebindAbort func(error)
	// SnapshotUser and RestoreUser extend checkpoints with behavior-side
	// state: SnapshotUser runs at each capture (its return value travels
	// in Checkpoint.User), RestoreUser at each resumed start — so a
	// stateful sink's output is restored in lockstep with the engine and
	// a recovered run stays byte-identical end to end.
	SnapshotUser func() any
	RestoreUser  func(any)
	// Faults, when non-nil, injects the plan's deterministic fault
	// schedule at behavior firings and rebind boundaries. Test-only.
	Faults *faultinject.Plan
}

// actorState is one node's firing state: fired is the cumulative firing
// count and base the count at the last environment change (rate sequences
// index from there, Firing.K stays global); tokensIn/tokensOut feed the
// metrics harvest. Plain stores by the owning context, read by main only at
// barriers; padded because per-actor contexts write neighbouring entries
// from different goroutines at every firing.
type actorState struct {
	fired, base         int64
	tokensIn, tokensOut int64
	_                   [cacheLine - 4*8]byte
}

// portEdge pairs a concrete edge index with the port name an actor sees it
// under, mirroring internal/runner so In/Out maps are assembled in the
// same order.
type portEdge struct {
	edge int
	port string
}

// engine is one Run's execution state. The concrete CSDF graph, the
// repetition vector and the PASS are the committed row's, swapped at
// transaction boundaries; everything else (rings, wiring, scratches) is
// built once and reused for the whole run.
type engine struct {
	cfg  Config
	prog *core.Program
	cg   *csdf.Graph
	// rows is the scenario table, backed by rowBuf; key and occ are the
	// boundary's lookup scratch, tick the commit clock.
	rows     []*row
	rowBuf   [maxRows]*row
	key, occ []int64
	tick     int64

	// stop is closed on the first error/cancellation; stopped mirrors it
	// for branch-cheap per-firing checks. err is guarded by mu.
	stop    chan struct{}
	stopped atomic.Bool
	quit    chan struct{} // closed when Run returns: contexts exit
	mu      sync.Mutex
	err     error

	rings []*ring
	ins   [][]portEdge
	outs  [][]portEdge
	// behaviors and firings are indexed by node; a firing is nil for
	// token-only nodes (no behavior), which never materialize one.
	behaviors []runner.Behavior
	firings   []*runner.Firing
	// inBuf holds, per node and input-edge position, the reusable payload
	// slice the ring batch is copied into; it backs the Firing's In map.
	inBuf [][][]any
	// actors is each node's firing state, owned by the node's context
	// during an epoch and by Run between epochs.
	actors []actorState

	// perActor is the clustering, fixed for the run: every actor its own
	// context, or (the default, and any one-node graph) one context holding
	// them all and walking order — the committed row's PASS, whose
	// per-edge occupancy high-water mark is peak.
	perActor bool
	order    []int
	peak     []int64

	// work dispatches one epoch's iteration count to contexts 1..n−1 (none
	// by default); context 0 is the goroutine that called Run. pending
	// counts the peers still inside the epoch and the last one out signals
	// drained — the epoch barrier, and the happens-before edge from every
	// peer's writes to main's reads. cut ends an epoch early.
	work    []chan int64
	pending atomic.Int32
	drained chan struct{}
	cut     epochCut

	// ops counts completed firings; busy counts contexts inside (or queued
	// for) a behavior plus the main goroutine while it is doing boundary
	// work. Together they let the watchdog distinguish a stalled pipeline
	// from a slow behavior or a slow reconfiguration hook; only per-actor
	// runs have a watchdog, so only they touch them. sem bounds their
	// concurrent behaviors.
	ops  atomic.Int64
	busy atomic.Int64
	sem  chan struct{}

	// mx/jr are the optional observability sinks (Config.Metrics/Journal);
	// edgeName/edgeProd/edgeCons name every concrete edge and the actor on
	// each side of it, for harvest snapshots and watchdog stall diagnosis
	// (the watchdog runs beside main, so it must not read the swapped cg).
	// clock0 is the run's clock anchor when either sink is attached: the
	// engine's timings are monotonic offsets from it (clock), and journal
	// stamps are clock0Unix plus an offset.
	mx         *engMetrics
	jr         *obs.Journal
	edgeName   []string
	edgeProd   []string
	edgeCons   []string
	clock0     time.Time
	clock0Unix int64

	// ckpt is the preallocated checkpoint arena (nil when not armed);
	// ckptParamsStale marks the arena's valuation copy out of date, set at
	// init and at boundaries that change the environment. faults is the
	// optional injection plan.
	ckpt            *Checkpoint
	ckptParamsStale bool
	faults          *faultinject.Plan
}

// fail records the first error and closes the stop channel; later errors
// are dropped.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		e.stopped.Store(true)
		close(e.stop)
	}
	e.mu.Unlock()
}

func (e *engine) firstErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Run executes the configured number of iterations concurrently and
// returns the same Result the sequential runner would.
func Run(cfg Config) (*runner.Result, error) {
	hook, err := cfg.Hook()
	if err != nil {
		return nil, err
	}
	g, sk := cfg.Graph, cfg.Skeleton
	if sk != nil {
		if g == nil {
			g = sk.Source()
		} else if g != sk.Source() {
			return nil, fmt.Errorf("engine: Skeleton was compiled from a different graph than Config.Graph")
		}
	} else if sk, err = core.CompileSkeleton(g); err != nil {
		return nil, err
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 1
	}
	env := symb.Env{}
	for k, v := range g.DefaultEnv() {
		env[k] = v
	}
	for k, v := range cfg.Env {
		env[k] = v
	}
	resume := cfg.Resume
	if resume != nil {
		// The checkpoint's valuation wins: the resumed run continues under
		// exactly the parameters active at capture.
		for k, v := range resume.Params {
			env[k] = v
		}
		if resume.Completed > iters {
			return nil, fmt.Errorf("engine: resume: checkpoint has %d completed iterations, Iterations is %d", resume.Completed, iters)
		}
	}

	// The table starts as one unbound row; wire binds it, and until then its
	// concrete graph stands in for the structure (edge count, names, declared
	// initial tokens).
	seed := &row{prog: sk.NewProgram()}
	cfg.Graph = g // wire/fire read node metadata through cfg.Graph
	e := &engine{
		cfg:      cfg,
		cg:       seed.prog.Concrete(),
		stop:     make(chan struct{}),
		quit:     make(chan struct{}),
		jr:       cfg.Journal,
		actors:   make([]actorState, len(g.Nodes)),
		perActor: cfg.Workers > 1 && len(g.Nodes) > 1,
	}
	e.rows = append(e.rowBuf[:0], seed)
	e.faults = cfg.Faults
	if e.perActor {
		e.sem = make(chan struct{}, cfg.Workers)
	}
	// Main counts as busy whenever it is outside an epoch (inside one it is
	// context 0, counted like any context): boundary work (rebinds, user
	// hooks) must not trip the watchdog.
	e.busy.Add(1)

	start := int64(0)
	if resume != nil {
		if err := e.validateResume(resume); err != nil {
			return nil, err
		}
		start = resume.Completed
	}
	if err := e.wire(env, resume); err != nil {
		return nil, err
	}
	if resume != nil {
		for id := range e.actors {
			e.actors[id].fired, e.actors[id].base = resume.Fired[id], resume.Base[id]
		}
		if cfg.RestoreUser != nil {
			cfg.RestoreUser(resume.User)
		}
		e.record(obs.Event{Kind: obs.EvRestore, Completed: start})
	}
	if cfg.CheckpointSink != nil || cfg.CaptureAtEntry || resume != nil {
		e.ckpt = e.newCheckpointArena()
		e.ckptParamsStale = true
	}
	if cfg.Metrics != nil {
		e.mx = e.newEngMetrics(cfg.Metrics, resume)
	}
	if e.mx != nil || e.jr != nil {
		e.clock0 = time.Now()
		e.clock0Unix = e.clock0.UnixNano()
	}
	// Publish an initial snapshot so readers see names, capacities and the
	// seeded occupancies as soon as the run exists.
	e.harvest(start, true)
	e.record(obs.Event{Kind: obs.EvRunStart, Completed: start})

	defer close(e.quit)
	for c := range e.work {
		go e.contextLoop(c + 1)
	}
	if e.perActor {
		stopWatch := e.startWatchdog(stallWindow)
		defer stopWatch()
	}

	if ctx := cfg.Context; ctx != nil {
		stop := context.AfterFunc(ctx, func() { e.fail(ctx.Err()) })
		defer stop()
	}

	b := e.newBoundary(hook, env, iters)
	completed, err := b.epochs(start)
	if err != nil {
		return nil, err
	}
	// The final quiescent state is a checkpoint too: a drained session hands
	// its sink the exact cut it stopped at, and a resume from it consults the
	// hook at `completed`, as an uninterrupted longer run would have.
	b.capture(completed)
	e.harvest(completed, false)
	e.record(obs.Event{Kind: obs.EvRunEnd, Completed: completed})

	res := &runner.Result{Firings: map[string]int64{}, Remaining: map[string][]any{}}
	for id, n := range g.Nodes {
		if fired := e.actors[id].fired; fired > 0 {
			res.Firings[n.Name] = fired
		}
	}
	for ci := range e.cg.Edges {
		if vals := e.rings[ci].drain(); len(vals) > 0 {
			res.Remaining[e.cg.Edges[ci].Name] = vals
		}
	}
	return res, nil
}

// capacityFor sizes one ring from the schedule's high-water mark and the
// floor of the current content. Because the transport is batched — a
// firing's whole batch must fit in (or be available from) the ring at once,
// where the old per-token channels could trickle — every capacity is also
// clamped up to the edge's largest per-firing rate.
func capacityFor(ed *csdf.Edge, capTok int64) int64 {
	capTok = max(capTok, 1, ed.Initial)
	for _, r := range ed.Prod {
		capTok = max(capTok, r)
	}
	for _, r := range ed.Cons {
		capTok = max(capTok, r)
	}
	return capTok
}

// wire builds the run-once state: rings sized from the schedule (seeded
// with the declared initial tokens, or the checkpoint's ring contents when
// resuming) and marked solo where one context holds both ends, per-node
// port wiring, the reusable Firing of every node that has a behavior, and
// one work channel per peer context.
func (e *engine) wire(env symb.Env, resume *Checkpoint) error {
	g := e.cfg.Graph
	// The first row is built like any other, from the tokens actually on the
	// edges: the declared initial state, or the checkpoint's ring contents.
	ne := len(e.cg.Edges)
	scratch := make([]int64, ne+len(g.Params))
	e.occ, e.key = scratch[:ne], scratch[ne:ne]
	for ci := range e.occ {
		e.occ[ci] = e.cg.Edges[ci].Initial
		if resume != nil {
			e.occ[ci] = int64(len(resume.Edges[ci]))
		}
	}
	first, _, err := e.rowFor(env, e.occ)
	if err != nil {
		return err
	}
	e.rings = make([]*ring, len(first.caps))
	for ci, c := range first.caps {
		e.rings[ci] = newRing(c)
	}
	e.commit(first)

	low := e.prog.Lowering()
	e.ins = make([][]portEdge, len(g.Nodes))
	e.outs = make([][]portEdge, len(g.Nodes))
	names := make([]string, 3*ne)
	e.edgeName, e.edgeProd, e.edgeCons = names[:ne], names[ne:2*ne], names[2*ne:]
	for ei, ed := range g.Edges {
		ci := low.EdgeOf[ei]
		e.ins[ed.Dst] = append(e.ins[ed.Dst], portEdge{ci, g.Nodes[ed.Dst].Ports[ed.DstPort].Name})
		e.outs[ed.Src] = append(e.outs[ed.Src], portEdge{ci, g.Nodes[ed.Src].Ports[ed.SrcPort].Name})
		e.edgeName[ci] = e.cg.Edges[ci].Name
		e.edgeProd[ci] = g.Nodes[ed.Src].Name
		e.edgeCons[ci] = g.Nodes[ed.Dst].Name
	}
	for ci, r := range e.rings {
		// Marked before it is seeded: capacityFor makes every seed fit, and
		// a broken bound then surfaces as the first firing's deadlock
		// diagnosis instead of a seed parked forever.
		r.solo = !e.perActor || e.edgeProd[ci] == e.edgeCons[ci]
		if resume != nil {
			r.restore(resume.Edges[ci])
		} else {
			r.writeNil(e.occ[ci], e.stop)
		}
	}

	e.behaviors = make([]runner.Behavior, len(g.Nodes))
	e.firings = make([]*runner.Firing, len(g.Nodes))
	e.inBuf = make([][][]any, len(g.Nodes))
	if e.perActor {
		e.work = make([]chan int64, len(g.Nodes)-1)
		for c := range e.work {
			e.work[c] = make(chan int64, 1)
		}
		e.drained = make(chan struct{}, 1)
	}
	for id, n := range g.Nodes {
		b := e.cfg.Behaviors[n.Name]
		if b == nil {
			continue
		}
		e.behaviors[id] = b
		f := &runner.Firing{Node: n.Name,
			In: make(map[string][]any, len(e.ins[id])), Out: make(map[string][]any, len(e.outs[id]))}
		for _, pe := range e.ins[id] {
			f.In[pe.port] = nil
		}
		for _, pe := range e.outs[id] {
			f.Out[pe.port] = nil
		}
		e.firings[id] = f
		e.inBuf[id] = make([][]any, len(e.ins[id]))
	}
	return nil
}

// runEpoch runs iters graph iterations as one epoch: it dispatches them to
// the parked peer contexts, runs context 0 itself on the calling goroutine
// and waits for the peers to drain to the barrier; completed is the
// iteration count at the epoch's opening barrier. It returns how many
// iterations the epoch ran: iters, or fewer when cut fired first and
// context 0 ended the epoch at the earliest iteration boundary every
// context could still reach. A behavior panic aborts the transaction: the
// epoch's partial effects are discarded with the run, the abort is counted
// and journaled, and the counters are harvested so /metrics readers see it
// although the run is over. Recovery is the caller's: start a new Run with
// Resume set to the newest checkpoint.
func (e *engine) runEpoch(iters, completed int64, cut <-chan struct{}) (int64, error) {
	if err := e.firstErr(); err != nil {
		return 0, err
	}
	if e.mx != nil {
		e.mx.tot.Barriers++
	}
	e.cut.arm(cut, iters, len(e.work)+1)
	e.pending.Store(int32(len(e.work)))
	for _, w := range e.work {
		w <- iters
	}
	e.busy.Add(-1)
	e.runTimed(0, iters)
	if len(e.work) > 0 {
		<-e.drained
	}
	e.busy.Add(1)
	if e.cut.armed {
		iters = e.cut.until.Load()
	}
	err := e.firstErr()
	if e.mx != nil && err == nil && iters > 0 {
		e.soloPeaks()
	}
	// A type assertion, not errors.As: fire records the panic error bare,
	// and an As target would escape to the heap on every epoch.
	if pe, ok := err.(*BehaviorPanicError); ok {
		if e.mx != nil {
			e.mx.tot.Aborts++
		}
		e.record(obs.Event{Kind: obs.EvAbort, Completed: completed, Detail: pe.Node})
		e.harvest(completed, false)
	}
	return iters, err
}

// contextLoop is peer context c's persistent goroutine: spawned once per
// Run, it parks on its work channel between epochs and exits when the run
// is over.
func (e *engine) contextLoop(c int) {
	for {
		select {
		case iters := <-e.work[c-1]:
			e.runTimed(c, iters)
			if e.pending.Add(-1) == 0 {
				e.drained <- struct{}{}
			}
		case <-e.quit:
			return
		}
	}
}

// runTimed runs context c's share of an epoch. With metrics enabled it
// keeps the sampled epoch-granularity time accounting: one timestamp pair
// per sampled epoch (one in activeSampleMask+1, never per firing — blocked
// time inside ring waits is timed separately by the ring's slow path, and
// busy is estimated as scaled active minus blocked at harvest).
func (e *engine) runTimed(c int, iters int64) {
	if e.mx == nil {
		e.runContext(c, iters)
		return
	}
	ch := &e.mx.ctxs[c]
	sampled := ch.epochs&activeSampleMask == 0
	ch.epochs++
	if !sampled {
		e.runContext(c, iters)
		return
	}
	ch.timed++
	t0 := e.clock()
	e.runContext(c, iters)
	ch.activeNs += e.clock() - t0
}

// clock reads the monotonic clock as an offset from the run's anchor: one
// clock read, where time.Now takes a wall-clock read as well.
func (e *engine) clock() int64 { return int64(time.Since(e.clock0)) }

// runContext runs context c through iters graph iterations (counting
// iterations, not firings, so no iters × q product can wrap), each one its
// projection of the PASS: the whole order for the context that holds every
// actor, q firings of itself for an actor that is its own context. Order
// and solution are only rewritten while the context is parked. When the
// epoch is cuttable every iteration starts with the cut protocol's check,
// and context 0 first looks at the verdict's Cut itself.
func (e *engine) runContext(c int, iters int64) {
	var cut *epochCut
	if e.cut.armed {
		cut = &e.cut
	}
	order, reps := e.order, int64(1)
	if e.perActor {
		order, reps = []int{c}, e.prog.Solution().Q[c]
	}
	for it := int64(0); it < iters; it++ {
		if cut != nil {
			if c == 0 {
				cut.poll()
			}
			if !cut.enter(c, it) {
				return
			}
		}
		for n := int64(0); n < reps; n++ {
			for _, id := range order {
				if !e.fire(id) {
					return
				}
			}
		}
	}
}

// fire runs one firing of node id: consume the input rates, run the
// behavior, produce the output rates — blocking on ring capacity for
// backpressure when the node's peers live in other contexts. It reports
// false when the run stopped (cancellation, a failure recorded here or
// elsewhere). A token-only node (no behavior) materializes no Firing:
// payloads are consumed unobserved and nil placeholders emitted at the
// output rates, exactly as the sequential runner does. A node's Firing is
// reset by the firing body itself: every input slice is installed before
// the behavior runs and every output slice truncated once its batch is in
// the ring, so the next firing starts from empty outputs.
func (e *engine) fire(id int) bool {
	// Check for cancellation/failure at every firing boundary: a context
	// whose ring operations never block would otherwise run the epoch to
	// completion.
	if e.stopped.Load() {
		return false
	}
	edges, stop := e.cg.Edges, e.stop
	as := &e.actors[id]
	fired, kLocal := as.fired, as.fired-as.base
	f := e.firings[id]
	if f != nil {
		f.K = fired
	}

	for i, pe := range e.ins[id] {
		rate := edges[pe.edge].ConsAt(kLocal)
		if f == nil {
			if !e.rings[pe.edge].discard(rate, stop) {
				return e.halted()
			}
		} else {
			buf := e.inBuf[id][i]
			if int64(cap(buf)) < rate {
				buf = make([]any, rate)
				e.inBuf[id][i] = buf
			} else {
				buf = buf[:rate]
			}
			if !e.rings[pe.edge].read(buf, rate, stop) {
				return e.halted()
			}
			// Install even at rate 0 so the In map has the same keys the
			// sequential runner produces.
			f.In[pe.port] = buf
		}
		as.tokensIn += rate
	}

	if f != nil && !e.invoke(e.behaviors[id], f, id, fired) {
		return false
	}

	for _, pe := range e.outs[id] {
		rate := edges[pe.edge].ProdAt(kLocal)
		var vals []any
		if f != nil {
			vals = f.Out[pe.port]
		}
		switch {
		case int64(len(vals)) == rate:
			if !e.rings[pe.edge].write(vals, stop) {
				return e.halted()
			}
			if len(vals) > 0 {
				f.Out[pe.port] = vals[:0]
			}
		case len(vals) == 0:
			// No behavior output: emit nil payloads to keep the token count
			// right, as the sequential runner does.
			if !e.rings[pe.edge].writeNil(rate, stop) {
				return e.halted()
			}
		default:
			e.fail(fmt.Errorf("engine: %s firing %d: port %s produced %d payloads, rate is %d",
				e.cfg.Graph.Nodes[id].Name, fired, pe.port, len(vals), rate))
			return false
		}
		as.tokensOut += rate
	}

	as.fired++
	if e.perActor {
		e.ops.Add(1)
	}
	return true
}

// halted is the firing body's exit after a ring operation returned false:
// the run stopped (cancelled, or failed elsewhere), or a solo ring refused
// to wait. A solo ring's producer and consumer share one context, so no
// peer could ever end that wait; under the derived capacities it cannot
// happen (the next firing of the PASS is always enabled), and if it does
// the run fails at once with the watchdog's diagnosis instead of hanging.
func (e *engine) halted() bool {
	if !e.stopped.Load() {
		msg := e.blockedReport()
		e.record(obs.Event{Kind: obs.EvStall, Detail: msg})
		e.fail(fmt.Errorf("engine: deadlock: %s, and no other context shares the ring to end the wait; ring occupancy: %s",
			msg, e.ringReport()))
	}
	return false
}

// invoke runs the behavior of firing k of node id and records its failure;
// it reports whether the firing may go on. Under per-actor contexts the
// behavior holds a Workers slot and runs inside the busy window the
// watchdog reads.
func (e *engine) invoke(behavior runner.Behavior, f *runner.Firing, id int, k int64) bool {
	name := e.cfg.Graph.Nodes[id].Name
	if e.sem != nil {
		e.busy.Add(1)
		select {
		case e.sem <- struct{}{}:
		case <-e.stop:
			e.busy.Add(-1)
			return false
		}
	}
	err := e.callBehavior(behavior, f, name, k)
	if e.sem != nil {
		<-e.sem
		e.busy.Add(-1)
	}
	if err == nil {
		return true
	}
	var pe *BehaviorPanicError
	if errors.As(err, &pe) {
		// Unwrapped: runEpoch asserts the concrete type, and Run's caller
		// dispatches on it to decide between a restart and failure.
		e.fail(pe)
	} else {
		e.fail(fmt.Errorf("engine: %s firing %d: %v", name, k, err))
	}
	return false
}

// callBehavior runs one behavior firing with panic isolation: a panic in
// user code (or injected by the fault plan) is recovered into a structured
// BehaviorPanicError instead of crashing the process — the context's
// goroutine returns through its normal error path and the panic becomes a
// transaction abort at the epoch barrier. The fault-injection consult
// rides here too: one nil test per firing when no plan is armed, inside
// the busy window so an injected delay never trips the stall watchdog.
func (e *engine) callBehavior(behavior runner.Behavior, f *runner.Firing, name string, k int64) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &BehaviorPanicError{Node: name, Firing: k, Value: v, Stack: debug.Stack()}
		}
	}()
	if e.faults != nil {
		if delay, panicNow := e.faults.Behavior(name, k); panicNow {
			panic(fmt.Sprintf("injected fault at firing %d", k))
		} else if delay > 0 {
			time.Sleep(delay)
		}
	}
	return behavior(f)
}

// stallWindow is the watchdog's window: two consecutive windows without
// progress fail the run.
const stallWindow = 500 * time.Millisecond

// startWatchdog returns a stopper for a goroutine that fails the run when
// it makes no progress: no firing completed, no behavior ran and no
// boundary work happened for two consecutive stall windows. Only runs with
// more than one context start it: a solo ring never waits (halted fails
// the run at once), so what it guards are the rings that cross contexts.
// Under the analysis-derived capacities every run has, no stall can happen
// (they admit a complete schedule, and the execution is conflict-free);
// the watchdog stays as the safety net for the two protocols those
// capacities do not prove — the ring's wait-flag handshake and the epoch
// cut — turning a bug in either into a diagnosed error instead of a hang.
func (e *engine) startWatchdog(stall time.Duration) func() {
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(stall)
		defer tick.Stop()
		last := e.ops.Load()
		lastProgress := time.Now()
		idle := 0
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := e.ops.Load()
				if cur != last || e.busy.Load() > 0 {
					last, idle = cur, 0
					lastProgress = time.Now()
					continue
				}
				if idle++; idle >= 2 {
					msg := e.blockedReport()
					if msg == "" {
						msg = "no actor is blocked on a ring (behavior stuck?)"
					}
					e.record(obs.Event{Kind: obs.EvStall, Detail: msg})
					e.fail(fmt.Errorf("engine: deadlock: no progress for %v, last progress at %s, %d firings completed: %s; ring occupancy: %s",
						2*stall, lastProgress.Format(time.RFC3339Nano), cur, msg, e.ringReport()))
					return
				}
				// Near-miss: one idle window elapsed; a second consecutive
				// one fails the run. Journal it so slow-but-alive pipelines
				// leave a trace.
				e.record(obs.Event{Kind: obs.EvStallWarn, Detail: e.blockedReport()})
			}
		}
	}()
	return func() { close(done) }
}
