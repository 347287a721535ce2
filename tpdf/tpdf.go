// Package tpdf is the public API of the Transaction Parameterized Dataflow
// reproduction (Do, Louise, Cohen — DATE 2016). It is the single supported
// way to use the library: everything under internal/ is an implementation
// detail.
//
// The API has four entry points:
//
//   - NewGraph returns a fluent GraphBuilder with error accumulation:
//     declare kernels, control actors and special TPDF actors, wire them
//     with textual edge specs ("A[p] -> B[1]"), and check a single error at
//     Build. Graphs can also be loaded from the textual .tpdf format with
//     Parse or LoadFile, or taken from the Builtin registry of the paper's
//     application graphs ("fig2", "ofdm", "edge", ...).
//
//   - Analyze runs the complete §III static-analysis chain — rate
//     consistency, per-control-actor rate safety, liveness by cycle
//     clustering, the Theorem 2 boundedness verdict — plus the symbolic
//     per-iteration buffer bound, and returns one consolidated Report.
//
//   - Execution comes in three tiers: Simulate executes a graph
//     token-accurately in virtual time; Execute runs it at the payload
//     level with user Behaviors, one firing at a time; Stream runs the
//     same behaviors as a long-lived engine — bounded ring buffers sized
//     from the analysis, reconfiguration at transaction boundaries,
//     checkpoints, metrics — with results identical to Execute. By default
//     Stream executes the schedule the analysis proves exists: one
//     goroutine fires every actor in schedule order, so no firing ever
//     waits. WithWorkers(n >= 2) asks for concurrent behaviors: every
//     actor gets its own goroutine, with the firing order found at run
//     time by blocking on rings that keep the analysis-derived sizes.
//     Schedule list-schedules the canonical period onto a many-core
//     platform. They share one set of functional options, and each entry
//     point reads the options its comment lists (WithParams,
//     WithIterations and WithContext are read by all three execution
//     tiers).
//
//   - The case-study constructors (OFDM, EdgeDetection, FMRadio, VC1,
//     MotionEstimation) and the experiment registry (RunExperiment)
//     reproduce the paper's graphs, tables and figures.
//
// # Observability
//
// Streaming runs carry zero-overhead instrumentation from the tpdf/obs
// package, attached with one option: WithMetrics(registry) makes an
// obs.Registry the run's one sink. The run records its transaction
// structure into it — barriers with their boundary cost, parameter rebinds
// with a digest of the new valuation, aborts, restores, drains, stall
// warnings — and the registry keeps the newest 256 records and sums the
// boundary totals from them, so the counters and the trace cannot
// disagree. Per-actor counters (firings, tokens produced, parks and wakes)
// and per-edge ring gauges (occupancy, high-water, capacity, grows) are
// bumped with plain stores on cache-line-padded blocks by the one goroutine
// that fires the actor and harvested into the registry, with the
// boundary's records and under one lock, only at transaction barriers, when
// the pipeline is quiescent — the warm firing path stays free of locks,
// atomics, clock reads and allocations, so a run with metrics attached is
// measurably no slower (the tpdf-bench -metrics-overhead CI gate enforces
// <2%). Export the records with Registry.WriteChromeTrace (load in
// chrome://tracing or Perfetto). The registry is safe to read concurrently
// while the run is live; tpdf-serve holds one per session and serves it at
// GET /metrics in Prometheus text exposition and GET
// /v1/sessions/{id}/trace as a Chrome trace, with net/http/pprof on an
// opt-in admin listener. See ExampleStream_metrics.
//
// # Fault tolerance
//
// Streaming runs can arm transactional fault tolerance, built on the same
// quiescent barriers reconfiguration uses. WithCheckpoints(sink) captures
// a Checkpoint on entering every consulted transaction boundary (every
// boundary under WithBarrier / WithReconfigure; under WithBoundary, the ones
// its verdicts' run lengths leave), before the boundary's hook runs — one
// kind of cut, the state between two transactions: per-edge ring contents in
// FIFO order, per-actor firing counters, the parameter valuation with its
// digest, and (with WithUserState) a snapshot of user behavior state.
// Rings are only snapshotted at quiescent barriers — between epochs, when
// every actor is parked and the in-flight token set is exactly the edge
// residue — so a checkpoint is always a consistent cut of the dataflow,
// never a torn mid-epoch state. Captures reuse a preallocated arena: the
// warm firing path stays allocation-free with checkpointing armed, and a
// checkpoint-armed-but-idle engine is statistically no slower than a bare
// one (the tpdf-bench -ckpt-overhead CI gate enforces <2%).
//
// A checkpoint rehydrates a fresh engine with WithResume, and there is one
// resume rule: the resumed run consults the hook at the checkpoint's
// boundary — what the uninterrupted run did next — applies its verdict (a
// rebind is applied, and counted, again) and continues toward the
// WithIterations total, producing output byte-identical to an uninterrupted
// run. A hook may assume only that it is a function of the completed count
// and of what WithUserState restores; one that answers from private state
// needs a supervisor that remembers its last answer. A panic in the middle
// of a k-iteration epoch restarts from its opening cut and replays all k:
// longer verdicts trade fewer barriers and cuts for more replayed work.
// That is also the only recovery mechanism: a panicking behavior becomes a
// transaction abort that ends the engine with a structured
// *BehaviorPanicError (node, firing, stack), and whoever supervises the
// run restarts it from the newest cut. In process there is one supervisor:
// WithPanicRecovery(n) makes Stream do so itself up to n times (replaying
// the interrupted boundary's verdict: the user's hook is still called once
// per boundary), and a tpdf-serve session is a Stream run under it. Out of
// process, a restarted process does it from a durable snapshot. A
// WithMetrics registry shared by the incarnations keeps counting across
// them (Aborts, Restores, barriers, firings, Rebinds — the boundary crossed
// twice counts twice). Rebinds are transactional too: a rejected or failed
// rebind aborts with ErrRebindAborted before anything is committed, the run
// still on the pre-barrier valuation — observe aborts with
// WithRebindAbortHandler or receive them as the run error. Deterministic
// seeded fault injection for tests attaches with WithFaultPlan. A
// tpdf-serve pump is one epoch, so a mid-pump panic replays the pump from
// its opening cut (un-acked work carries no durability promise, acked work
// is covered by the cut flushed at the ack boundary), and tpdf-loadgen
// -chaos soaks that recovery path in CI. See ExampleStream_checkpoint and
// ExampleStream_panicRecovery.
//
// # Durability
//
// The same consistent cuts persist across process death. OpenSnapshotStore
// opens a snapshot directory; store.Persister(id, graph, opts) returns a
// Persister that a run arms with WithDurableCheckpoints: the cut of every
// consulted boundary is copied into a double buffer on the barrier (an
// allocation-free copy; the firing path never touches the disk) and a
// background writer encodes the newest cut — ring contents, firing counters,
// valuation, user state, plus the graph's canonical text so a cold process
// can recompile it — into a checksummed binary snapshot, appended to the
// session's log and fsynced, with the log rewritten down to its newest K
// records every so many appends. Persister.Flush forces a synchronous write
// of the newest cut; tpdf-serve calls it before acknowledging a pump, so an
// acked pump always survives a crash — and when the flush itself fails, the
// pump is failed (serve.ErrNotDurable) rather than acked, so the client is
// never told unsynced work is durable. After a crash, store.Load(id) returns
// the newest snapshot whose checksums verify — a torn tail from a mid-write
// power cut is detected and skipped, falling back to the previous good
// record — and its Graph() plus Checkpoint rehydrate a fresh run via
// WithResume, byte-identical from the cut onward. tpdf-serve -data-dir wires
// this end to end: the fleet is rebuilt from disk at boot (/healthz answers
// 503 "recovering" until done), client-closed sessions delete their
// snapshots, drained ones keep them, and tpdf-loadgen -crash-record /
// -crash-verify gate the whole cycle — SIGKILL, restart, no acked work lost
// — in CI. See ExampleStream_durable.
package tpdf

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Model types, re-exported from the implementation. A Graph is purely
// structural; build one with NewGraph (the builder), Parse/LoadFile (the
// textual format) or Builtin (the registry).
type (
	// Graph is a TPDF graph (Definition 2).
	Graph = core.Graph
	// Node is a kernel or control actor.
	Node = core.Node
	// Edge is a FIFO channel between two ports.
	Edge = core.Edge
	// Port is a typed connection point with a cyclo-static rate sequence.
	Port = core.Port
	// Param is a declared integer parameter with range and default.
	Param = core.Param
	// NodeID identifies a node within its graph.
	NodeID = core.NodeID
	// EdgeID identifies an edge within its graph.
	EdgeID = core.EdgeID
	// Mode is a kernel firing mode selected by a control token.
	Mode = core.Mode
	// NodeKind separates kernels from control actors.
	NodeKind = core.NodeKind
	// PortDir distinguishes data inputs, outputs and control ports.
	PortDir = core.PortDir
)

// Firing modes (Definition 2) and node kinds.
const (
	ModeWaitAll         = core.ModeWaitAll
	ModeSelectOne       = core.ModeSelectOne
	ModeSelectMany      = core.ModeSelectMany
	ModeHighestPriority = core.ModeHighestPriority

	KindKernel  = core.KindKernel
	KindControl = core.KindControl

	In     = core.In
	Out    = core.Out
	CtlIn  = core.CtlIn
	CtlOut = core.CtlOut
)

// Runtime types, re-exported from the simulator and the payload runner.
type (
	// ControlToken is the value carried by control channels: the mode the
	// receiving kernel must fire in plus the enabled data ports.
	ControlToken = sim.ControlToken
	// DecideFunc lets a control actor choose the tokens it emits on its
	// n-th firing, keyed by control-output port name.
	DecideFunc = sim.DecideFunc
	// FireEvent describes one completed firing for tracing.
	FireEvent = sim.FireEvent
	// SimResult reports a Simulate run: virtual completion time, firings,
	// per-edge buffer high-water marks and the optional event trace.
	SimResult = sim.Result
	// Behavior is a payload-level firing function for Execute.
	Behavior = runner.Behavior
	// Firing is the payload-level firing context passed to a Behavior.
	Firing = runner.Firing
	// ExecResult reports an Execute run.
	ExecResult = runner.Result
	// Platform describes a many-core target for Schedule.
	Platform = platform.Platform
)

// MPPA256 is the Kalray MPPA-256 platform model (16 clusters × 16 PEs).
func MPPA256() *Platform { return platform.MPPA256() }

// Epiphany64 is the Adapteva Epiphany-IV platform model.
func Epiphany64() *Platform { return platform.Epiphany64() }

// SMP is a flat shared-memory platform with n identical PEs and no
// messaging cost.
func SMP(n int) *Platform { return platform.Simple(n) }

// Parse reads a graph from its textual .tpdf description.
func Parse(src string) (*Graph, error) { return graphio.Parse(src) }

// LoadFile reads and parses a .tpdf graph file.
func LoadFile(path string) (*Graph, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return graphio.Parse(string(src))
}

// Format renders a graph in the textual .tpdf format; Parse(Format(g))
// round-trips.
func Format(g *Graph) string { return graphio.Format(g) }

// DOT renders a graph in Graphviz DOT format.
func DOT(g *Graph) string { return graphio.DOT(g) }

// Table renders rows as an aligned ASCII table, as the CLI tools print it.
func Table(headers []string, rows [][]string) string { return trace.Table(headers, rows) }

// ControlOutPorts returns the control-output port names of the named
// control actor, in port order. Mode decisions passed via WithDecisions are
// keyed by these names.
func ControlOutPorts(g *Graph, actor string) ([]string, error) {
	id, ok := g.NodeByName(actor)
	if !ok {
		return nil, fmt.Errorf("tpdf: unknown node %q", actor)
	}
	var out []string
	for _, p := range g.Nodes[id].Ports {
		if p.Dir == core.CtlOut {
			out = append(out, p.Name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tpdf: node %q has no control-output ports", actor)
	}
	return out, nil
}
