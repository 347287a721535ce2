package tpdf

import (
	"repro/internal/core"
	"repro/internal/engine"
)

// CompiledGraph is the immutable, shareable compile product of a graph:
// validation done, every symbolic rate lowered to compiled expression
// tables over a fixed parameter index. It holds no valuation and is never
// written after Compile returns, so one CompiledGraph may back any number
// of concurrent Stream sessions (pass it with WithCompiled): each run
// stamps its own cheap mutable rate state from the shared skeleton, paying
// the compilation cost once per graph instead of once per connection. This
// is the facade of the server tier's program cache.
type CompiledGraph struct {
	sk *core.Skeleton
}

// Compile validates the graph and lowers its rate expressions into a
// read-only CompiledGraph that runs can share via WithCompiled. One-shot
// callers don't need it — every entry point compiles internally — but a
// caller about to run many sessions of the same graph should compile once
// and share.
func Compile(g *Graph) (*CompiledGraph, error) {
	sk, err := core.CompileSkeleton(g)
	if err != nil {
		return nil, err
	}
	return &CompiledGraph{sk: sk}, nil
}

// Graph returns the source graph the compile product was built from.
func (c *CompiledGraph) Graph() *Graph { return c.sk.Source() }

// WithCompiled makes Stream, Simulate, Schedule and GenerateCode stamp
// their mutable program state from the shared compile product instead of
// compiling the graph themselves. The graph passed alongside must be the
// one the CompiledGraph was compiled from (or nil to use c.Graph()).
// Results are byte-identical to a run that compiled freshly; only the
// setup cost changes. Other entry points ignore this option.
func WithCompiled(c *CompiledGraph) Option {
	return func(cfg *config) { cfg.compiled = c }
}

// Verdict is a WithBoundary hook's answer at a transaction boundary:
// parameter overrides to apply (Params), how many iterations to run before
// the hook is consulted again (Run), whether to end the run cleanly here
// (Stop), and an optional channel that takes the Run promise back (Cut).
type Verdict = engine.Verdict

// WithBoundary installs the transaction-boundary hook on Stream. The hook
// is consulted at boundaries including before the first iteration
// (completed = 0) and its Verdict drives the run. The one rule: parameters
// change only at consulted boundaries; a verdict promises none for Run
// iterations — and Stream runs those iterations as a single epoch (one
// dispatch, one quiescent barrier, one checkpoint) rather than stopping
// the world Run times where nobody wants to change anything. Run below 1
// means 1; Run past the remaining iterations is clamped.
//
// Stop = true drains the run cleanly at the quiescent boundary — parked
// actors, leftover tokens reported in the Result, no error — which is how
// a long-running session ends at a barrier instead of being cancelled
// mid-iteration. A hook that may need the engine back before Run
// iterations have passed sets Cut: when the channel is closed, the epoch
// in flight ends at the earliest iteration boundary every actor can still
// reach (possibly the epoch's own opening boundary) and the hook is
// consulted there with the true completed count.
//
// The hook may block (a parked session waits here for its next command)
// without tripping the stall watchdog, but a blocking hook must watch its
// own cancellation signal and return Stop: the engine cannot interrupt
// user code. WithBoundary, WithBarrier and WithReconfigure are mutually
// exclusive.
func WithBoundary(fn func(completed int64) Verdict) Option {
	return func(cfg *config) { cfg.boundary = fn }
}

// WithBarrier is WithBoundary with one-iteration verdicts: the hook runs
// at every boundary including before the first iteration (completed = 0,
// 1, 2, ...) and returns the parameter values to apply plus a stop
// verdict, so every boundary is a consulted one — parameters may change at
// any of them, and each costs a full quiescent barrier.
func WithBarrier(fn func(completed int64) (params map[string]int64, stop bool)) Option {
	return func(cfg *config) { cfg.barrier = fn }
}
