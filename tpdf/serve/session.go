package serve

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/tpdf"
	"repro/tpdf/obs"
)

// maxSessionIterations is the iteration target a session's engine is
// started with: effectively unbounded, the session ends by draining at a
// barrier, not by exhausting iterations. The target sizes nothing — ring
// capacities come from one iteration's schedule, which returns every edge
// to its starting occupancy.
const maxSessionIterations = int64(1) << 62

// SessionState is a session's supervision state, readable via
// Session.State and exported per session on /metrics.
type SessionState int32

const (
	// StateRunning: the engine is live (parked at a barrier, pumping, or
	// restarting from the newest cut after a behavior panic).
	StateRunning SessionState = iota
	// StateFailed: the engine is gone for good — restart budget exhausted,
	// a non-recoverable error, or hard cancellation. Commands answer the
	// run error.
	StateFailed
	// StateDrained: the session stopped cleanly at a transaction barrier.
	StateDrained
)

func (s SessionState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateFailed:
		return "failed"
	case StateDrained:
		return "drained"
	default:
		return "unknown"
	}
}

// fleetCounters aggregates fault-tolerance events across the fleet; the
// manager owns one and every session bumps it alongside its own counters.
type fleetCounters struct {
	panics       atomic.Int64
	restarts     atomic.Int64
	rebindAborts atomic.Int64
}

// Session is one client's persistent streaming engine: a tpdf.Stream run
// parked at a transaction barrier between requests. Its Program is stamped
// from the tenant graph's shared CompiledGraph, so the session owns all of
// its mutable engine state (single-writer per session) while the compile
// product is shared fleet-wide. The engine is a coroutine (iter.Pull)
// that whoever holds the session's turn resumes on their own goroutine:
// a pump is a call, and a parked session is a suspended stack.
//
// Lifecycle: Open (stamp + start, engine parks at the completed=0 barrier)
// → any number of Pump/Reconfigure calls, each taking effect at a
// quiescent barrier → Drain (clean stop at the next barrier, rings
// flushed into the final result) or hard cancellation after the drain
// deadline.
//
// The session is supervised by tpdf.Stream itself (WithPanicRecovery): the
// engine checkpoints on entering every boundary its hook is consulted at
// (the boundaries between pumps), a behavior panic tears down only the
// in-flight epoch — the pump — and Stream restarts the engine from the
// newest cut, answering the boundary it restarts at with the pump's verdict
// again, up to Config.MaxRestarts times. A panic in one session never
// touches the process or any other session: the engine recovers behavior
// panics into error values, and any other panic is recovered where the
// coroutine runs and becomes the session's failure.
type Session struct {
	ID     string
	Tenant string

	compiled *tpdf.CompiledGraph
	params   map[string]int64

	// turn (capacity 1) is held by whoever resumes the engine (next, stop)
	// or stages overrides; verdict, the hook's answer when resumed, and
	// pending, the overrides staged for the next pump, are the holder's.
	turn    chan struct{}
	next    func() (int64, bool)
	stop    func()
	yield   func(int64) bool
	verdict tpdf.Verdict
	pending map[string]int64

	// soft is every pump's Cut and makes the hook stop at the next
	// boundary; hard cancels the engine outright when the drain deadline
	// expires.
	soft       chan struct{}
	softOnce   sync.Once
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// done closes once the engine has exited and result or runErr is set.
	done   chan struct{}
	result *tpdf.ExecResult
	runErr error

	completed atomic.Int64
	// sink token counters, parallel to sinkNames (nodes with no outgoing
	// edges) and sinkPorts (each sink's input port names): the
	// per-session observable output of the count profile.
	sinkNames  []string
	sinkPorts  [][]string
	sinkTokens []atomic.Int64

	state        atomic.Int32
	restarts     atomic.Int64
	panics       atomic.Int64
	rebindAborts atomic.Int64
	maxRestarts  int
	fleet        *fleetCounters
	faults       *faultinject.Plan

	// resume is the durable snapshot a cold-start recovered session starts
	// from; the first restore clears it, so only later ones count as
	// restarts. snapSinks is the sink counter snapshot riding in
	// Checkpoint.User.
	resume    *tpdf.Checkpoint
	snapSinks []int64

	// persister streams the checkpoints to the durable snapshot store (nil
	// when the server runs without -data-dir).
	persister *tpdf.Persister

	// metrics is the session's private observability sink: the engine
	// records and harvests into it at transaction barriers, the persister
	// records its writes, and /metrics and the trace export read it. One
	// registry per session, so series from different engines never mix.
	metrics *obs.Registry
}

// durableEnv is the manager's durability context handed to each session:
// the shared snapshot store and the fleet-wide durability counters every
// persist event bumps.
type durableEnv struct {
	store    *tpdf.SnapshotStore
	counters *durableCounters
}

// newSession stamps and starts a session: it resumes the engine once, so
// the engine is parked at its first boundary (or the session is
// StateFailed) when it returns. A non-nil dur arms durable checkpoint
// persistence; a non-nil resume seeds the session from a durable
// snapshot's checkpoint — the engine resumes there instead of starting
// fresh.
func newSession(id, tenant string, compiled *tpdf.CompiledGraph, params map[string]int64,
	chaos *ChaosSpec, maxRestarts int, fleet *fleetCounters,
	dur *durableEnv, resume *tpdf.Checkpoint) (*Session, error) {
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Session{
		ID:          id,
		Tenant:      tenant,
		compiled:    compiled,
		params:      params,
		turn:        make(chan struct{}, 1),
		soft:        make(chan struct{}),
		hardCtx:     hardCtx,
		hardCancel:  hardCancel,
		done:        make(chan struct{}),
		maxRestarts: maxRestarts,
		fleet:       fleet,
		metrics:     obs.NewRegistry(),
	}
	g := compiled.Graph()
	out := make([]bool, len(g.Nodes))
	ins := make([][]string, len(g.Nodes))
	for _, e := range g.Edges {
		out[e.Src] = true
		ins[e.Dst] = append(ins[e.Dst], g.Nodes[e.Dst].Ports[e.DstPort].Name)
	}
	for ni, n := range g.Nodes {
		if !out[ni] {
			s.sinkNames = append(s.sinkNames, n.Name)
			s.sinkPorts = append(s.sinkPorts, ins[ni])
		}
	}
	s.sinkTokens = make([]atomic.Int64, len(s.sinkNames))
	s.snapSinks = make([]int64, len(s.sinkNames))
	if chaos != nil {
		s.faults = chaos.plan(s.sinkNames)
	}
	if resume != nil {
		// A snapshot is outside input (another build, an edited graph):
		// refuse user state restoreSinks would index past.
		if vals, ok := resume.User.([]int64); !ok || len(vals) != len(s.sinkNames) {
			hardCancel()
			return nil, fmt.Errorf("serve: session %s: snapshot user state %v is not one counter per sink of graph %q (%d)",
				id, resume.User, g.Name, len(s.sinkNames))
		}
		s.resume = resume
		s.completed.Store(resume.Completed)
		// Seed the sink counters from the snapshot so stats are correct
		// before the engine's own RestoreUser runs at resume.
		s.restoreSinks(resume.User)
		s.metrics.Record(obs.Event{Kind: obs.EvRecover, Completed: resume.Completed})
	}
	if dur != nil && dur.store != nil {
		p, err := dur.store.Persister(id, g, tpdf.PersistOptions{
			Tenant: tenant,
			OnPersist: func(info tpdf.PersistInfo) {
				if info.Err != nil {
					dur.counters.persistErrs.Add(1)
					s.metrics.Record(obs.Event{Kind: obs.EvPersist,
						Completed: info.Completed, DurNs: int64(info.Dur), Detail: info.Err.Error()})
					return
				}
				dur.counters.snapshots.Add(1)
				dur.counters.bytes.Add(int64(info.Bytes))
				dur.counters.lastSize.Store(int64(info.Bytes))
				dur.counters.persistLatency.Observe(info.Dur)
				s.metrics.Record(obs.Event{Kind: obs.EvPersist,
					Completed: info.Completed, DurNs: int64(info.Dur)})
			},
		})
		if err != nil {
			hardCancel()
			return nil, fmt.Errorf("serve: session %s: durable store: %w", id, err)
		}
		s.persister = p
	}
	s.next, s.stop = iter.Pull(s.run)
	s.next()
	return s, nil
}

// behaviors implements the count profile: every sink node counts the
// tokens it consumes (per session, read back by Stats and pump replies);
// all other nodes stay token-only, which the engine executes without even
// materializing a firing context. The profile is graph-agnostic — it works
// for any admissible graph — and deterministic, so a session on a shared
// compile product is byte-identical to one on a fresh compile.
func (s *Session) behaviors() map[string]tpdf.Behavior {
	b := make(map[string]tpdf.Behavior, len(s.sinkNames))
	for i, name := range s.sinkNames {
		ctr, ports := &s.sinkTokens[i], s.sinkPorts[i]
		b[name] = func(f *tpdf.Firing) error {
			n := 0
			for _, port := range ports {
				n += len(f.In[port])
			}
			ctr.Add(int64(n))
			return nil
		}
	}
	return b
}

// snapshotSinks / restoreSinks carry the sink counters inside each
// checkpoint, so a restart discards exactly the tokens of the aborted
// transaction. The snapshot slice is reused: only the newest checkpoint is
// ever restored, and Stream's copy of the cut and the slice are rewritten
// at the same barrier.
func (s *Session) snapshotSinks() any {
	for i := range s.sinkTokens {
		s.snapSinks[i] = s.sinkTokens[i].Load()
	}
	return s.snapSinks
}

func (s *Session) restoreSinks(u any) {
	// u is snapshotSinks' own slice, or a snapshot's that newSession checked.
	for i, v := range u.([]int64) {
		s.sinkTokens[i].Store(v)
	}
}

// restore is the session's WithUserState restore callback. The engine runs
// it exactly at each resumed start: a cold-start recovered session's first
// one is its durable snapshot, every other one is Stream restarting the
// engine after a behavior panic — one panic and one restart, counted here.
func (s *Session) restore(u any) {
	s.restoreSinks(u)
	if s.resume != nil {
		s.resume = nil
		return
	}
	s.countPanic()
	s.restarts.Add(1)
	s.fleet.restarts.Add(1)
}

func (s *Session) countPanic() {
	s.panics.Add(1)
	s.fleet.panics.Add(1)
}

// onRebindAbort makes rejected reconfigurations non-fatal: the engine never
// left the previous valuation; the session and fleet count the event (the
// engine already recorded it).
func (s *Session) onRebindAbort(error) {
	s.rebindAborts.Add(1)
	s.fleet.rebindAborts.Add(1)
}

// run is the session's coroutine. It runs the engine under Stream's own
// supervisor (up to maxRestarts behavior panics restart it from the newest
// cut; the session's registry spans every incarnation) and records how it
// ended: drained at a barrier, or failed — a behavior panic past the
// restart budget (counted here), cancellation, a deadlock diagnosis, an
// admission-time bug, or a panic outside any behavior, recovered here so
// it never reaches whoever resumed the engine. Closing the persister
// flushes the newest cut, so once Drain returns the session's last
// consistent state is on disk.
func (s *Session) run(yield func(int64) bool) {
	s.yield = yield
	defer close(s.done)
	if s.persister != nil {
		defer s.persister.Close() //nolint:errcheck // counted via OnPersist
	}
	defer func() {
		if v := recover(); v != nil {
			s.runErr = fmt.Errorf("serve: engine panicked outside a behavior: %v", v)
		}
		if s.runErr != nil {
			s.state.Store(int32(StateFailed))
		} else {
			s.state.Store(int32(StateDrained))
		}
	}()
	opts := []tpdf.Option{
		tpdf.WithCompiled(s.compiled),
		tpdf.WithParams(s.params),
		tpdf.WithIterations(maxSessionIterations),
		tpdf.WithContext(s.hardCtx),
		tpdf.WithBoundary(s.barrierHook),
		tpdf.WithMetrics(s.metrics),
		tpdf.WithPanicRecovery(s.maxRestarts),
		tpdf.WithUserState(s.snapshotSinks, s.restore),
		tpdf.WithRebindAbortHandler(s.onRebindAbort),
	}
	if s.faults != nil {
		opts = append(opts, tpdf.WithFaultPlan(s.faults))
	}
	if s.persister != nil {
		// Cuts stream to the background writer; a pump flushes before it
		// acks, so acked work is always covered by a durable cut.
		opts = append(opts, tpdf.WithDurableCheckpoints(s.persister))
	}
	if s.resume != nil {
		opts = append(opts, tpdf.WithResume(s.resume))
	}
	res, err := tpdf.Stream(s.compiled.Graph(), s.behaviors(), opts...)
	if err == nil {
		s.result = res
		return
	}
	if errors.As(err, new(*tpdf.BehaviorPanicError)) {
		s.countPanic()
	}
	s.runErr = err
}

// barrierHook is the session's transaction boundary, on the coroutine: it
// yields the completed count to whoever resumed the engine (Open, a pump,
// Drain) and stays suspended at this quiescent point until the next turn
// holder resumes it with a verdict — the paper's transaction rule, bent
// into a server's request loop. A pump of N is one verdict of Run N: one
// epoch, one durable cut and one flush, acked at the next boundary. Its
// Cut is soft, so a drain stops the pump at the next iteration boundary;
// once soft is closed, every resumption stops the engine. A restarted
// engine never reaches this hook at the boundary it restarts at: Stream
// answers it with the pump's verdict again.
func (s *Session) barrierHook(completed int64) tpdf.Verdict {
	s.completed.Store(completed)
	if !s.yield(completed) {
		return tpdf.Verdict{Stop: true}
	}
	select {
	case <-s.soft:
		return tpdf.Verdict{Stop: true}
	default:
		return s.verdict
	}
}

// take waits for the session's turn under ctx; release gives it back.
func (s *Session) take(ctx context.Context) error {
	select {
	case s.turn <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Session) release() { <-s.turn }

// Pump runs iters graph iterations (transactions) through the parked
// engine, optionally applying parameter overrides at the first boundary,
// and returns the session's total completed iteration count afterwards.
// On a durable session, an error wrapping ErrNotDurable means the
// iterations ran (the count is still returned) but the covering checkpoint
// could not be flushed — the work is not crash-safe.
//
// ctx bounds only the wait for the session's turn: a Pump whose ctx ends
// while another pump holds the turn returns ctx.Err(). Once it has the
// turn, the caller's goroutine is the engine, so its epoch runs to its end
// (or to a drain's cut) whatever ctx does.
func (s *Session) Pump(ctx context.Context, iters int64, params map[string]int64) (int64, error) {
	n, _, err := s.pump(ctx, iters, params, false)
	return n, err
}

// pump is Pump; with sinks it also returns the sink totals read at the
// ack's boundary, while the turn is still held, so no other pump can have
// moved them.
func (s *Session) pump(ctx context.Context, iters int64, params map[string]int64, sinks bool) (int64, map[string]int64, error) {
	if iters <= 0 {
		return s.completed.Load(), nil, fmt.Errorf("serve: pump iterations must be >= 1")
	}
	if err := s.take(ctx); err != nil {
		return s.completed.Load(), nil, err
	}
	defer s.release()
	s.stage(params)
	// Clamped to the engine's iteration target, so the sum cannot wrap.
	run := min(iters, maxSessionIterations-s.completed.Load())
	s.verdict = tpdf.Verdict{Params: s.pending, Run: run, Cut: s.soft}
	s.pending = nil
	completed, ok := s.next()
	if !ok {
		return s.completed.Load(), nil, s.exitErr()
	}
	var tokens map[string]int64
	if sinks {
		tokens = s.SinkTokens()
	}
	if s.persister != nil {
		// Durability point: the cut at this boundary covers every iteration
		// acked; one fsync per pump. A failed flush fails the pump — the
		// session keeps running, but Config.DataDir promises acks only
		// after the covering checkpoint is fsynced.
		if err := s.persister.Flush(); err != nil {
			return completed, tokens, fmt.Errorf("%w: %v", ErrNotDurable, err)
		}
	}
	return completed, tokens, nil
}

// stage merges overrides into the ones the next pump applies; the caller
// holds the turn.
func (s *Session) stage(params map[string]int64) {
	if len(params) > 0 && s.pending == nil {
		s.pending = map[string]int64{}
	}
	maps.Copy(s.pending, params)
}

// Reconfigure stages parameter overrides; they take effect at the boundary
// opening the next pumped iteration, per the transaction semantics. It
// returns as soon as they are staged, without resuming the engine; ctx
// bounds the wait for the session's turn, as in Pump. An override rejected
// at the boundary (unbounded schedule, out-of-range value) aborts only
// that rebind: the engine keeps running under the previous parameters and
// the abort is counted on the session and the fleet.
func (s *Session) Reconfigure(ctx context.Context, params map[string]int64) error {
	if len(params) == 0 {
		return nil
	}
	if err := s.take(ctx); err != nil {
		return err
	}
	defer s.release()
	if s.State() != StateRunning {
		return s.exitErr()
	}
	s.stage(params)
	return nil
}

// Drain stops the session cleanly at the next transaction barrier: parked
// actors exit, leftover tokens are flushed into the final result. It
// closes soft first, which cuts a pump in flight at its next iteration
// boundary, then takes the turn and resumes the engine one last time to
// stop it. If ctx expires before the turn is free (the bounded drain
// deadline), the engine is cancelled outright first. Drain is idempotent
// and always returns after the engine has exited.
func (s *Session) Drain(ctx context.Context) (*tpdf.ExecResult, error) {
	s.softOnce.Do(func() { close(s.soft) })
	if s.take(ctx) != nil {
		s.hardCancel()
		s.turn <- struct{}{}
	}
	s.stop()
	s.release()
	return s.result, s.runErr
}

// exitErr is the error a command should report after the engine exited: the
// run error if the engine failed, or a closed-session error after a clean
// drain.
func (s *Session) exitErr() error {
	if s.runErr != nil {
		return fmt.Errorf("serve: session %s engine failed: %w", s.ID, s.runErr)
	}
	return fmt.Errorf("%w: session %s", ErrClosed, s.ID)
}

// Completed returns the session's total completed iteration count as of the
// last boundary its hook was consulted at: it advances when a pump ends,
// not per iteration.
func (s *Session) Completed() int64 { return s.completed.Load() }

// State returns the session's supervision state.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

// Restarts counts engine restarts after behavior panics.
func (s *Session) Restarts() int64 { return s.restarts.Load() }

// Panics counts behavior panics the session's engines hit.
func (s *Session) Panics() int64 { return s.panics.Load() }

// RebindAborts counts reconfigurations rejected at barriers.
func (s *Session) RebindAborts() int64 { return s.rebindAborts.Load() }

// Metrics is the session's private observability registry: its counters
// and its bounded trace of boundary, persist and recovery records. The
// engine refreshes it at every barrier it crosses (the end of each pump).
func (s *Session) Metrics() *obs.Registry { return s.metrics }

// Graph names the session's graph (a label in the metrics exposition).
func (s *Session) Graph() string { return s.compiled.Graph().Name }

// SinkTokens reports tokens consumed per sink node so far.
func (s *Session) SinkTokens() map[string]int64 {
	out := make(map[string]int64, len(s.sinkNames))
	for i, name := range s.sinkNames {
		out[name] = s.sinkTokens[i].Load()
	}
	return out
}
