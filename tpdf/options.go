package tpdf

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/symb"
	"repro/tpdf/obs"
)

// Params is a repeatable "name=value" command-line flag collecting
// parameter assignments: register it with flag.Var and hand the result to
// WithParams (it is assignable to map[string]int64).
type Params map[string]int64

// String renders the collected assignments.
func (p Params) String() string { return fmt.Sprint(map[string]int64(p)) }

// Set parses one name=value assignment.
func (p Params) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return err
	}
	p[name] = v
	return nil
}

// config collects every knob the entry points understand. Each entry point
// reads the subset that applies to it and ignores the rest, so one option
// list can configure an Analyze + Schedule + Simulate pipeline.
type config struct {
	ctx             context.Context
	params          map[string]int64
	iterations      int64
	processors      int
	decide          map[string]DecideFunc
	record          bool
	platform        *Platform
	controlPriority bool
	workers         int
	reconfigure     func(completed int64) map[string]int64
	barrier         func(completed int64) (map[string]int64, bool)
	boundary        func(completed int64) Verdict
	compiled        *CompiledGraph
	parallel        int
	metrics         *obs.Registry
	checkpointSink  func(*Checkpoint)
	persister       *Persister
	resume          *Checkpoint
	panicRetries    int
	onRebindAbort   func(error)
	snapshotUser    func() any
	restoreUser     func(any)
	faults          *faultinject.Plan
}

// Option configures an entry point; each reads the options its comment
// lists and ignores the rest. WithCompiled is honoured by Stream, Simulate,
// Schedule and GenerateCode, which bind a single Program; Sweep (once per
// worker), MinimalBuffers and Analyze compile the graph themselves, and
// Execute, the reference tier, lowers independently by design.
type Option func(*config)

func buildConfig(opts []Option) config {
	cfg := config{
		iterations:      1,
		controlPriority: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// env renders the accumulated parameter assignments for the internals;
// nil (graph defaults) when none were given.
func (c *config) env() symb.Env {
	if len(c.params) == 0 {
		return nil
	}
	return symb.Env(c.params)
}

// WithContext attaches a cancellation context: long Simulate runs poll it
// between events and return its error once it is done.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithParams merges parameter assignments (name -> value) used to
// instantiate the graph's symbolic rates. Unset parameters keep their
// declared defaults.
func WithParams(params map[string]int64) Option {
	return func(c *config) {
		if c.params == nil {
			c.params = map[string]int64{}
		}
		for k, v := range params {
			c.params[k] = v
		}
	}
}

// WithParam assigns a single parameter.
func WithParam(name string, value int64) Option {
	return WithParams(map[string]int64{name: value})
}

// WithIterations bounds a run to n graph iterations (default 1): every node
// fires at most n × q(node) times.
func WithIterations(n int64) Option {
	return func(c *config) { c.iterations = n }
}

// WithProcessors limits the processing elements available: concurrently
// executing firings in Simulate, PEs used by Schedule. Zero (the default)
// means unlimited in Simulate and every platform PE in Schedule.
func WithProcessors(p int) Option {
	return func(c *config) { c.processors = p }
}

// WithDecisions supplies mode decisions per control-actor name; control
// actors without one emit wait-all tokens.
func WithDecisions(decide map[string]DecideFunc) Option {
	return func(c *config) { c.decide = decide }
}

// WithRecord stores the full firing trace in SimResult.Events.
func WithRecord() Option {
	return func(c *config) { c.record = true }
}

// WithPlatform selects the many-core target for Schedule (default SMP with
// the WithProcessors count, or 8 PEs).
func WithPlatform(p *Platform) Option {
	return func(c *config) { c.platform = p }
}

// WithoutControlPriority disables the §III-D rule that control actors win
// PEs over kernels in Schedule.
func WithoutControlPriority() Option {
	return func(c *config) { c.controlPriority = false }
}

// WithWorkers asks Stream for concurrent behaviors: with n >= 2 every actor
// runs on its own goroutine (the first on the calling one) and at most n
// behaviors execute at once (WithWorkers(len(g.Nodes)) is full pipeline
// parallelism — the choice for behaviors that wait: I/O, pacing, a
// device). Zero (the default) or one keeps Stream on the calling goroutine,
// which fires the actors one at a time in schedule order, the fastest way
// through behaviors that only compute. It is the only choice of
// goroutines: the rings keep the capacities the analysis derived either
// way, and results are identical.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithReconfigure installs a Stream reconfiguration hook, the runtime half
// of the paper's transaction semantics: after every completed graph
// iteration the hook receives the number of iterations done so far and may
// return new parameter values for the remaining ones (nil keeps the current
// environment). Stream quiesces the pipeline at the boundary before
// applying the change, so no firing ever observes a mix of old and new
// parameter values. It is WithBoundary with one-iteration verdicts, minus
// the completed = 0 boundary and the stop verdict.
func WithReconfigure(fn func(completed int64) map[string]int64) Option {
	return func(c *config) { c.reconfigure = fn }
}

// WithMetrics attaches an observability registry, the run's one sink, to a
// Stream run (no other entry point reads it). Stream records run start/end,
// every barrier span, rebinds with their duration and parameter digest,
// aborts, restores, drain verdicts and watchdog stalls into it, and the
// registry sums its boundary totals (Barriers, Rebinds, RowsBuilt, Aborts,
// Restores, RebindNs, BoundaryNs) from those records. At every transaction
// barrier Stream also harvests per-actor counters (firings, tokens out,
// parks and wakes) and per-edge ring gauges (occupancy, high-water,
// capacity, grow events) into it — the firing path itself updates only
// private cache-line-padded counters with plain stores and stays 0
// allocs/op. Read a consistent copy at any time with
// Registry.EngineSnapshot (at most one transaction old) and the newest 256
// records with Registry.Events or Registry.WriteChromeTrace
// (chrome://tracing). Use one registry per run (tpdf/serve keeps one per
// session) so series never mix.
func WithMetrics(r *obs.Registry) Option {
	return func(c *config) { c.metrics = r }
}

// WithParallelism bounds the worker pool of the two parallel drivers: Sweep
// shards its parameter grid (a grid too small to amortize a worker's
// compiled Program and Simulator runs inline), RunAllExperiments runs
// experiments side by side, and both experiment entry points pass it to the
// pixel kernels behind t6 and a5 and to f8's grid shard. Every other entry
// point — Analyze and MinimalBuffers included — runs on the calling
// goroutine and ignores it. Values below 2 mean sequential. Results are
// byte-identical whatever the value: the drivers write results by index.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallel = n }
}
