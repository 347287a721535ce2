package tpdf

import (
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/faultinject"
)

// Fault tolerance facade: barrier checkpoints, resume, speculative rebind
// and behavior-panic isolation. There is one kind of cut — the state between
// two transactions — and one recovery mechanism — abort the in-flight
// transaction, restart from the newest cut, ask the hook at that boundary
// again — whoever restarts. See the package documentation's "Fault
// tolerance" section for the model.

type (
	// Checkpoint is a consistent cut of a Stream run captured at a
	// quiescent transaction barrier: firing counters, ring contents in
	// FIFO order, the active parameter valuation, and optional user state.
	// Feed it back with WithResume to continue the run.
	Checkpoint = engine.Checkpoint

	// BehaviorPanicError reports a behavior panic converted into a
	// transaction abort; Node and Firing locate the panic, Stack is the
	// panicking goroutine's stack. Test with errors.As.
	BehaviorPanicError = engine.BehaviorPanicError
)

// ErrRebindAborted reports a reconfiguration rejected at a transaction
// boundary: the rebind (out of range, non-integer rate, no bounded
// schedule — or an injected WithFaultPlan fault) failed before anything was
// committed, so the run is still on the pre-boundary valuation. Errors wrap
// it; test with errors.Is.
var ErrRebindAborted = engine.ErrRebindAborted

// WithCheckpoints arms barrier checkpointing on Stream: a consistent cut
// is captured on entering every consulted transaction boundary — before its
// hook runs, so the cut at k holds nothing hook(k) decided — and once at run
// end, and handed to sink. The cut passed to sink is the engine's reusable
// arena — valid only during the call; keep state across calls with
// Checkpoint.CopyInto or Checkpoint.Clone. Warm captures perform no heap
// allocations, so a checkpoint-armed pipeline keeps the 0 allocs/op
// firing path. A nil sink still arms capture (the cuts are taken and
// dropped), which is how the capture cost is measured on its own.
func WithCheckpoints(sink func(*Checkpoint)) Option {
	if sink == nil {
		sink = func(*Checkpoint) {}
	}
	return func(c *config) { c.checkpointSink = sink }
}

// WithUserState attaches behavior-side state to checkpoints: snapshot is
// called at every capture barrier and its value travels in
// Checkpoint.User; restore is called with that value whenever a run starts
// from a checkpoint (WithResume, or a WithPanicRecovery restart). Both run
// while every actor is parked, so they may touch state the behaviors own.
// snapshot must return a self-contained value (a restart hands it back
// after further firings have mutated the live state).
func WithUserState(snapshot func() any, restore func(any)) Option {
	return func(c *config) {
		c.snapshotUser = snapshot
		c.restoreUser = restore
	}
}

// WithResume starts Stream from a checkpoint instead of from the graph's
// initial state: ring contents, firing counters, the captured valuation
// and user state are installed before the first epoch. WithIterations
// remains the total target — resuming a 100-iteration run from a
// checkpoint at 60 runs 40 more and produces a result byte-identical to
// the uninterrupted run. The resumed run first consults the boundary hook at
// the checkpoint's count (a cut holds no verdict), so the hook must answer
// from completed and from what WithUserState restores. The checkpoint must
// come from the same graph (same name, nodes and edges); else it fails fast.
func WithResume(ck *Checkpoint) Option {
	return func(c *config) { c.resume = ck }
}

// WithPanicRecovery makes Stream supervise its own run: a behavior panic
// aborts the in-flight transaction (its partial effects are discarded) and
// ends the engine; Stream then starts it again from the newest barrier
// checkpoint — exactly what WithResume does for a crashed process — up to
// retries times across the run, replaying the verdict of the boundary it
// restarts at, so the hook is still called once per boundary. The output is
// byte-identical to a fault-free one (pair it with WithUserState when
// behaviors keep state of their own). Recovery implies checkpoint capture
// even without WithCheckpoints; an attached WithMetrics registry counts
// every abort and every restart (Aborts, Restores). When the budget is
// exhausted — or with retries <= 0 — the run fails with a
// *BehaviorPanicError.
func WithPanicRecovery(retries int) Option {
	return func(c *config) { c.panicRetries = retries }
}

// WithRebindAbortHandler makes aborted rebinds non-fatal: when a
// reconfiguration is rejected (unbounded schedule, out-of-range value, or
// an injected fault), fn receives the error wrapping ErrRebindAborted and
// the run continues under the previous valuation, which it never left — the
// proposed change is discarded, not the session.
func WithRebindAbortHandler(fn func(error)) Option {
	return func(c *config) { c.onRebindAbort = fn }
}

// ErrNoSnapshot reports a session with no durable snapshot on disk —
// distinct from a session whose snapshots exist but are all corrupt, which
// surfaces as a plain error. Test with errors.Is.
var ErrNoSnapshot = durable.ErrNoSnapshot

// SnapshotStore is the durable half of fault tolerance: a directory of
// per-session checkpoint snapshots with crash-safe write discipline
// (tmp-write → fsync → rename → directory fsync), keep-last-K retention,
// and CRC-guarded torn-write detection on load. Open one, derive a
// Persister per run, and arm it with WithDurableCheckpoints; after a
// crash, Load the newest valid snapshot and resume with WithResume.
type SnapshotStore struct {
	st *durable.Store
}

// OpenSnapshotStore opens (creating if needed) a snapshot store rooted at
// dir, keeping the newest keepLast snapshots per session (clamped to 1).
func OpenSnapshotStore(dir string, keepLast int) (*SnapshotStore, error) {
	st, err := durable.Open(dir, keepLast)
	if err != nil {
		return nil, err
	}
	return &SnapshotStore{st: st}, nil
}

// IDs lists the session IDs with snapshots in the store, sorted.
func (s *SnapshotStore) IDs() ([]string, error) { return s.st.Sessions() }

// Remove deletes every snapshot held for id.
func (s *SnapshotStore) Remove(id string) error { return s.st.Remove(id) }

// DurableSnapshot is one recovered session state: the engine checkpoint
// plus the identity needed to rebuild the session around it.
type DurableSnapshot struct {
	// ID and Tenant are the session identity recorded at persist time.
	ID     string
	Tenant string
	// GraphText is the canonical graph source (Format output); parse it
	// with Graph (or Parse) and recompile before resuming.
	GraphText string
	// Checkpoint is the consistent cut to hand to WithResume.
	Checkpoint *Checkpoint
	// Discarded counts newer snapshot files skipped as torn or corrupt
	// before this one decoded cleanly — each is a crash casualty.
	Discarded int
}

// Graph parses the snapshot's recorded graph text.
func (d *DurableSnapshot) Graph() (*Graph, error) { return Parse(d.GraphText) }

// Load decodes the newest valid snapshot for id, walking backward past
// torn or corrupt files. ErrNoSnapshot when the session has none.
func (s *SnapshotStore) Load(id string) (*DurableSnapshot, error) {
	snap, discarded, err := s.st.LoadNewest(id)
	if err != nil {
		return nil, err
	}
	return &DurableSnapshot{
		ID:         snap.SessionID,
		Tenant:     snap.Tenant,
		GraphText:  snap.GraphText,
		Checkpoint: snap.Checkpoint,
		Discarded:  discarded,
	}, nil
}

// PersistInfo reports one durable snapshot write to PersistOptions.OnPersist.
type PersistInfo struct {
	// Completed is the persisted checkpoint's iteration count.
	Completed int64
	// Bytes is the encoded snapshot size (0 when the write failed).
	Bytes int
	// Dur is the persist latency: encode + write + fsync + rename.
	Dur time.Duration
	// Err is non-nil when the write failed.
	Err error
}

// PersistOptions tunes a Persister.
type PersistOptions struct {
	// Tenant is recorded in every snapshot and restored on recovery.
	Tenant string
	// OnPersist, when non-nil, observes every persist attempt — the hook
	// metrics and journals hang off. Called from the writer's background
	// goroutine (or the Flush caller); must be safe for that.
	OnPersist func(PersistInfo)
}

// Persister streams one session's checkpoints to a snapshot store without
// blocking the barrier path: Offer copies into a double buffer
// (allocation-free once warm) and every offer wakes a background goroutine
// that encodes and writes. Only the newest offered checkpoint is ever
// written; intermediates a busy writer skipped are safe because every
// snapshot is a complete state.
type Persister struct {
	w *durable.Writer
}

// Persister returns a persister writing session id's checkpoints to the
// store. g must be the graph the session runs — its Format text is
// recorded in every snapshot so recovery can recompile it.
func (s *SnapshotStore) Persister(id string, g *Graph, po PersistOptions) (*Persister, error) {
	ss, err := s.st.Session(id)
	if err != nil {
		return nil, err
	}
	var onEv func(durable.PersistEvent)
	if po.OnPersist != nil {
		hook := po.OnPersist
		onEv = func(ev durable.PersistEvent) {
			hook(PersistInfo{Completed: ev.Completed, Bytes: ev.Bytes, Dur: ev.Dur, Err: ev.Err})
		}
	}
	return &Persister{w: durable.NewWriter(ss, id, po.Tenant, Format(g), 1, onEv)}, nil
}

// Offer records ck as the newest persistable cut; never blocks on I/O.
// Stream calls this for every cut when the persister is armed via
// WithDurableCheckpoints; call it directly only for checkpoints obtained
// some other way.
func (p *Persister) Offer(ck *Checkpoint) { p.w.Offer(ck) }

// Flush synchronously persists the newest offered checkpoint — the
// durability point an acknowledgement should wait on. With nothing
// pending it returns the last background persist's error, so a failed
// write cannot hide behind an empty flush.
func (p *Persister) Flush() error { return p.w.Flush() }

// Close flushes and stops the background writer. Safe to call twice.
func (p *Persister) Close() error { return p.w.Close() }

// WithDurableCheckpoints arms crash-consistent persistence on Stream:
// every cut WithCheckpoints would see is also offered to p. A cut precedes
// its boundary's hook, so when a hook acknowledges completed work the cut
// covering it has already been offered, and Persister.Flush before the
// acknowledgement makes it crash-safe. What a hook staged is in no cut —
// after a crash the hook is simply asked again.
//
// The persistence path costs the barrier an allocation-free double-buffer
// copy; encoding and fsync happen on p's background goroutine, so the
// warm firing path stays 0 allocs/op and barrier latency stays flat.
// Composes with WithCheckpoints (its sink sees every cut first) and
// WithUserState.
func WithDurableCheckpoints(p *Persister) Option {
	return func(c *config) { c.persister = p }
}

// WithFaultPlan injects a deterministic fault schedule into the run:
// behavior panics, firing delays and rebind rejections fire at exact
// (node, firing-index) sites from the plan. Test-only — build plans with
// internal/faultinject (explicit sites or Seeded schedules); production
// code passes nothing and pays nothing.
func WithFaultPlan(p *faultinject.Plan) Option {
	return func(c *config) { c.faults = p }
}
