package tpdf

import (
	"errors"

	"repro/internal/engine"
)

// Stream runs the graph at the payload level like Execute, as a
// long-lived engine: edges wired as single-producer/single-consumer ring
// buffers sized from the analysis buffer bounds (a whole firing's token
// batch moves per synchronization), parameter reconfiguration applied only
// at transaction (iteration) boundaries via an in-place rebind of the
// compiled graph, and the boundary hooks, checkpoints and metrics below.
// For any graph Execute completes, Stream produces the identical result —
// same Firings, same Remaining payloads in the same FIFO order. The warm
// firing path performs no heap allocations; in exchange, payload slices
// handed to behaviors are valid only for the duration of the firing (keep
// the values, not the slices).
//
// By default Stream executes the schedule the analysis computes for the
// active parameter values on the calling goroutine: it fires every actor
// in that order and starts no goroutine of its own, and with the
// analysis-derived ring sizes no firing ever waits for tokens or space (a
// wait that no other goroutine could ever end fails the run at once with a
// deadlock error instead). WithWorkers(n >= 2) asks for concurrent
// behaviors — one goroutine per actor (the first actor's is the calling
// one), at most n behaviors at once, backpressure from ring capacity, the
// pipeline overlapping the behaviors' latencies instead of serializing
// them. The rings keep the analysis-derived sizes either way, so no run can
// wedge on a ring; under WithWorkers(n >= 2) a watchdog still fails a run
// that makes no progress for a second instead of letting it hang. Results
// are identical in both cases, and a checkpoint cut under one resumes
// under the other.
//
// Concurrency contract: behaviors of different nodes may run concurrently,
// on different goroutines (they do under WithWorkers(n >= 2); by default
// they run one at a time in schedule order, on the calling goroutine);
// firings of one node never overlap each other, and a behavior must not
// wait for another behavior except through the graph's edges.
// State only one node's behavior touches needs no synchronisation; state
// shared between the behaviors of different nodes — one map they all write
// counts as shared even when the keys differ — is the caller's to
// synchronise. Everything behaviors wrote is visible to
// the hooks that run at a transaction boundary (WithBoundary,
// WithReconfigure, WithBarrier, WithUserState, WithCheckpoints) and to the
// caller once Stream returns. See ExampleStream for the slot-per-node
// pattern.
//
// Relevant options: WithParams, WithIterations, WithContext, WithWorkers,
// WithBoundary, WithReconfigure, WithBarrier, WithCompiled, WithMetrics,
// WithCheckpoints, WithResume, WithUserState, WithPanicRecovery,
// WithDurableCheckpoints, WithRebindAbortHandler, WithFaultPlan.
func Stream(g *Graph, behaviors map[string]Behavior, opts ...Option) (*ExecResult, error) {
	cfg := buildConfig(opts)
	sink := cfg.checkpointSink
	if p := cfg.persister; p != nil {
		// Durable persistence taps the checkpoint stream: every cut is
		// offered to the background writer, and the user's sink (if any)
		// still sees it first.
		user := sink
		sink = func(ck *Checkpoint) {
			if user != nil {
				user(ck)
			}
			p.Offer(ck)
		}
	}
	ec := engine.Config{
		Graph:       g,
		Env:         cfg.env(),
		Behaviors:   behaviors,
		Iterations:  cfg.iterations,
		Context:     cfg.ctx,
		Workers:     cfg.workers,
		Reconfigure: cfg.reconfigure,
		Barrier:     cfg.barrier,
		Boundary:    cfg.boundary,
		Metrics:     cfg.metrics,

		CheckpointSink: sink,
		Resume:         cfg.resume,
		OnRebindAbort:  cfg.onRebindAbort,
		SnapshotUser:   cfg.snapshotUser,
		RestoreUser:    cfg.restoreUser,
		Faults:         cfg.faults,
	}
	if cfg.compiled != nil {
		ec.Skeleton = cfg.compiled.sk
	}
	if cfg.panicRetries <= 0 {
		return engine.Run(ec)
	}
	// WithPanicRecovery is supervision, not an engine mode: keep the newest
	// cut, and when a behavior panic ends the run start the engine again
	// from it — the restart-from-checkpoint a crashed process or a
	// tpdf/serve session performs. Every epoch follows a capture or the
	// resumed start, so a panic always has a cut to restart from. A cut
	// holds no verdict and the restarted engine asks at its boundary again,
	// so the supervisor hands the engine one resolved hook that answers the
	// first consultation after a restart with the verdict it last returned —
	// minus Params a rebind abort refused: the refusal is part of what that
	// boundary did (and an injected one fires once).
	kept := &Checkpoint{}
	ec.CheckpointSink = func(ck *Checkpoint) {
		ck.CopyInto(kept)
		ec.Resume = kept // read by the next Run; this one holds a copy of ec
		if sink != nil {
			sink(ck)
		}
	}
	hook, err := ec.Hook()
	if err != nil {
		return nil, err
	}
	restarted := false
	if hook != nil {
		var last Verdict
		ec.Barrier, ec.Reconfigure = nil, nil
		ec.Boundary = func(completed int64) Verdict {
			if !restarted {
				last = hook(completed)
			}
			restarted = false
			return last
		}
		if onAbort := cfg.onRebindAbort; onAbort != nil {
			ec.OnRebindAbort = func(err error) {
				last.Params = nil
				onAbort(err)
			}
		}
	}
	for budget := cfg.panicRetries; ; budget-- {
		res, err := engine.Run(ec)
		var pe *BehaviorPanicError
		if budget <= 0 || !errors.As(err, &pe) {
			return res, err
		}
		if cfg.ctx != nil && cfg.ctx.Err() != nil {
			return nil, cfg.ctx.Err()
		}
		restarted = true
	}
}
