package serve

import (
	"context"
	"errors"
	"fmt"
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

// sessCmd is one client command delivered to the session's barrier hook at
// a quiescent transaction boundary.
type sessCmd struct {
	// params are parameter overrides to apply at the boundary.
	params map[string]int64
	// iters > 0 pumps that many graph iterations (transactions).
	iters int64
	// reply receives the command's acknowledgement once it has taken
	// effect (buffered; the hook never blocks on it).
	reply chan pumpAck
}

// pumpAck is the barrier hook's answer to one command: the session's total
// completed iteration count, plus a non-nil err wrapping ErrNotDurable
// when the durable flush covering the pump failed — the iterations ran,
// but the client must not treat them as crash-safe.
type pumpAck struct {
	completed int64
	err       error
}

// Session is one client's persistent streaming engine: a tpdf.Stream run
// parked at a transaction barrier between requests. Its Program is stamped
// from the tenant graph's shared CompiledGraph, so the session owns all of
// its mutable engine state (single-writer per session) while the compile
// product is shared fleet-wide.
//
// Lifecycle: Open (stamp + start, engine parks at the completed=0 barrier)
// → any number of Pump/Reconfigure commands, each taking effect at a
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
// touches the process or any other session — the engine recovers it on the
// goroutine that fired the actor and returns it as an error value.
type Session struct {
	ID     string
	Tenant string

	compiled *tpdf.CompiledGraph
	params   map[string]int64

	cmds chan sessCmd
	// soft asks the barrier hook to stop at the next boundary; hard
	// cancels the engine outright (unparks ring waits) when the drain
	// deadline expires.
	soft       chan struct{}
	softOnce   sync.Once
	hardCtx    context.Context
	hardCancel context.CancelFunc

	done   chan struct{}
	result *tpdf.ExecResult
	runErr error

	completed atomic.Int64
	// sink token counters, parallel to sinkNames (nodes with no outgoing
	// edges): the per-session observable output of the count profile.
	sinkNames  []string
	sinkTokens []atomic.Int64

	// Supervision state. The barrier-hook fields (pumpEnd — the completed
	// count the pump in flight ends at — pumpReply, non-nil exactly while
	// a pump is in flight, and pumpPending, the overrides staged for the
	// next pump) are owned by the run goroutine: tpdf.Stream calls the hook
	// synchronously, so no other goroutine touches them.
	state        atomic.Int32
	restarts     atomic.Int64
	panics       atomic.Int64
	rebindAborts atomic.Int64
	maxRestarts  int
	fleet        *fleetCounters
	faults       *faultinject.Plan
	pumpEnd      int64
	pumpReply    chan pumpAck
	pumpPending  map[string]int64

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

// newSession stamps and starts a session. Its goroutine runs the engine
// until drain, failure or hard cancellation; the engine parks (zero CPU)
// whenever no command is pending. A non-nil dur arms durable checkpoint
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
		cmds:        make(chan sessCmd),
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
	for _, e := range g.Edges {
		out[e.Src] = true
	}
	for ni, n := range g.Nodes {
		if !out[ni] {
			s.sinkNames = append(s.sinkNames, n.Name)
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
	go s.run()
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
		ctr := &s.sinkTokens[i]
		b[name] = func(f *tpdf.Firing) error {
			n := 0
			for _, vals := range f.In {
				n += len(vals)
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

// runEngine runs the session's engine under Stream's own supervisor: up to
// maxRestarts behavior panics are recovered by restarting from the newest
// cut. The session's registry is shared by every incarnation, so the
// engine's counters continue across restarts and each resumed start is
// recorded and counted there (EvRestore, Restores).
func (s *Session) runEngine() (*tpdf.ExecResult, error) {
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
		// Cuts stream to the background writer; a pump ack flushes before
		// replying (finishPump), so acked work is always covered by a
		// durable cut.
		opts = append(opts, tpdf.WithDurableCheckpoints(s.persister))
	}
	if s.resume != nil {
		opts = append(opts, tpdf.WithResume(s.resume))
	}
	return tpdf.Stream(s.compiled.Graph(), s.behaviors(), opts...)
}

// run runs the engine once and records how it ended: drained at a
// barrier, or failed — a behavior panic past the restart budget (the panic
// that exhausted it is counted here), cancellation, a deadlock diagnosis or an
// admission-time bug. Every cut was offered to the persister when it was
// captured; closing the persister flushes the newest, so once Drain returns
// the session's last consistent state is on disk.
func (s *Session) run() {
	defer close(s.done)
	if s.persister != nil {
		defer s.persister.Close() //nolint:errcheck // counted via OnPersist
	}
	res, err := s.runEngine()
	if err != nil {
		var pe *tpdf.BehaviorPanicError
		if errors.As(err, &pe) {
			s.countPanic()
		}
		s.runErr = err
		s.state.Store(int32(StateFailed))
		return
	}
	s.result = res
	s.state.Store(int32(StateDrained))
}

// barrierHook is the session's transaction-boundary command loop. It runs
// on the session's run goroutine inside tpdf.Stream, which is also the
// session's one execution context: between pumps it blocks here and
// every command takes effect only at this quiescent point — the paper's
// transaction rule, bent into a server's request loop. A pump of N
// iterations is answered with one verdict of Run N: the session needs the
// engine back only when the pump is over, so the pump is one epoch, one
// durable cut and one flush, and the hook is next consulted at the
// boundary that acks it. The verdict carries the soft-drain channel as its
// Cut, so a drain still stops the pump at the next iteration boundary
// rather than after the remaining N. A restarted engine never reaches this
// hook at the boundary it restarts at: Stream answers it with the pump's
// verdict again.
func (s *Session) barrierHook(completed int64) tpdf.Verdict {
	s.completed.Store(completed)
	cut := s.pumpReply != nil && completed < s.pumpEnd
	s.finishPump(completed)
	if cut {
		// A drain cut the pump short: stop here — a pump is not a critical
		// section and every boundary is a legal stopping point.
		return tpdf.Verdict{Stop: true}
	}
	for {
		select {
		case cmd := <-s.cmds:
			if len(cmd.params) > 0 {
				if s.pumpPending == nil {
					s.pumpPending = map[string]int64{}
				}
				for k, v := range cmd.params {
					s.pumpPending[k] = v
				}
			}
			if cmd.iters > 0 {
				// Clamped to the engine's iteration target, so the sum cannot wrap.
				s.pumpEnd = completed + min(cmd.iters, maxSessionIterations-completed)
				s.pumpReply = cmd.reply
				params := s.pumpPending
				s.pumpPending = nil
				return tpdf.Verdict{Params: params, Run: s.pumpEnd - completed, Cut: s.soft}
			}
			// Pure reconfigure: acknowledged now, applied together
			// with the next pump's first iteration.
			if cmd.reply != nil {
				cmd.reply <- pumpAck{completed: completed}
			}
		case <-s.soft:
			return tpdf.Verdict{Stop: true}
		case <-s.hardCtx.Done():
			return tpdf.Verdict{Stop: true}
		}
	}
}

func (s *Session) finishPump(completed int64) {
	if s.pumpReply == nil {
		return
	}
	var err error
	if s.persister != nil {
		// Durability point: the cut at this boundary (which covers every
		// iteration being acknowledged) was offered before this hook ran;
		// flush it to disk before the ack leaves. One
		// fsync per pump, not per iteration. A failed flush fails the
		// pump — the engine state is fine and the session keeps running,
		// but the client must not be told the work is durable when it is
		// not (Config.DataDir promises acks only after the covering
		// checkpoint is fsynced).
		if ferr := s.persister.Flush(); ferr != nil {
			err = fmt.Errorf("%w: %v", ErrNotDurable, ferr)
		}
	}
	s.pumpReply <- pumpAck{completed: completed, err: err}
	s.pumpReply = nil
}

// send delivers one command to the barrier hook and waits for its ack. A
// command sent while Stream restarts the engine after a panic just queues:
// the restarted engine replays the pump in flight and its hook takes the
// command at the boundary that acks it.
func (s *Session) send(ctx context.Context, cmd sessCmd) (int64, error) {
	cmd.reply = make(chan pumpAck, 1)
	select {
	case s.cmds <- cmd:
	case <-s.done:
		return s.completed.Load(), s.exitErr()
	case <-ctx.Done():
		return s.completed.Load(), ctx.Err()
	}
	select {
	case a := <-cmd.reply:
		return a.completed, a.err
	case <-s.done:
		return s.completed.Load(), s.exitErr()
	case <-ctx.Done():
		// The engine keeps pumping; only this waiter gives up.
		return s.completed.Load(), ctx.Err()
	}
}

// Pump runs iters graph iterations (transactions) through the parked
// engine, optionally applying parameter overrides at the first boundary,
// and returns the session's total completed iteration count afterwards.
// On a durable session, an error wrapping ErrNotDurable means the
// iterations ran (the count is still returned) but the covering checkpoint
// could not be flushed — the work is not crash-safe.
func (s *Session) Pump(ctx context.Context, iters int64, params map[string]int64) (int64, error) {
	if iters <= 0 {
		return s.completed.Load(), fmt.Errorf("serve: pump iterations must be >= 1")
	}
	return s.send(ctx, sessCmd{iters: iters, params: params})
}

// Reconfigure stages parameter overrides; they take effect at the boundary
// opening the next pumped iteration, per the transaction semantics. An
// override rejected there (unbounded schedule, out-of-range value) aborts
// only that rebind: the engine keeps running under the previous
// parameters and the abort is counted on the session and the fleet.
func (s *Session) Reconfigure(ctx context.Context, params map[string]int64) error {
	if len(params) == 0 {
		return nil
	}
	_, err := s.send(ctx, sessCmd{params: params})
	return err
}

// Drain stops the session cleanly at the next transaction barrier: parked
// actors exit, leftover tokens are flushed into the final result. If the
// context expires first (the bounded drain deadline), the engine is
// cancelled outright. Drain is idempotent and always waits for the engine
// goroutine to exit before returning.
func (s *Session) Drain(ctx context.Context) (*tpdf.ExecResult, error) {
	s.softOnce.Do(func() { close(s.soft) })
	select {
	case <-s.done:
	case <-ctx.Done():
		s.hardCancel()
		<-s.done
	}
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
