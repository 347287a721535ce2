package engine

import (
	"errors"
	"fmt"
)

// ErrRebindAborted reports a reconfiguration rejected at a transaction
// boundary: the rebind (or an injected fault) failed before anything was
// committed, so the run is still on the pre-boundary valuation's row instead
// of poisoned. Errors returned by reconfigure wrap it; test with errors.Is.
var ErrRebindAborted = errors.New("engine: rebind aborted")

// BehaviorPanicError is a behavior panic converted into a transaction
// abort: the firing context's goroutine recovered it, the in-flight epoch was
// discarded, and the run ended with this error. The newest checkpoint is
// the state to resume from. Node and Firing locate the panic, Stack is the
// recovering goroutine's stack.
type BehaviorPanicError struct {
	Node   string
	Firing int64
	Value  any
	Stack  []byte
}

func (e *BehaviorPanicError) Error() string {
	return fmt.Sprintf("engine: %s firing %d panicked: %v", e.Node, e.Firing, e.Value)
}

// Checkpoint is a consistent cut of a run, captured at a quiescent
// transaction barrier: every actor parked, every ring's content observed
// in FIFO order, the firing counters and the active valuation as of
// Completed iterations. Transaction barriers are the only points where
// such a cut exists — mid-epoch the rings are owned by running actors —
// so checkpoints are only ever taken (and restored) there.
//
// There is one kind of cut: the state *between* transactions, taken when the
// engine enters a consulted boundary — after the previous epoch drained,
// before that boundary's hook ran — and once more when the run ends. What a
// hook decided is never part of a cut, so a run resumed from any checkpoint
// consults the hook at Completed, as the uninterrupted run did.
//
// A Checkpoint passed to CheckpointSink is the engine's reusable arena:
// valid only during the call; callers keep state across calls via
// CopyInto or Clone.
type Checkpoint struct {
	// Graph is the source graph's name, checked on resume.
	Graph string
	// Completed is the iteration count at the capture barrier.
	Completed int64
	// Digest is the valuation digest (obs.ParamsDigest) at capture.
	Digest uint64
	// Params is the full valuation at capture (defaults merged in).
	Params map[string]int64
	// Nodes / Fired / Base are per-node firing state: Nodes the names (for
	// resume validation and Result), Fired the cumulative firing counts,
	// Base the counts at the last environment change (rate phases index
	// from there).
	Nodes []string
	Fired []int64
	Base  []int64
	// EdgeNames / Edges are the per-concrete-edge ring contents in FIFO
	// order (nil payloads included — token-only traffic is part of the
	// cut).
	EdgeNames []string
	Edges     [][]any
	// User is whatever Config.SnapshotUser returned at capture — the
	// behavior-side state that must travel with the engine cut for the
	// resumed run to be byte-identical (e.g. a sink's committed output).
	User any
}

// Clone deep-copies the checkpoint (User is copied by reference; snapshot
// functions must return self-contained values).
func (ck *Checkpoint) Clone() *Checkpoint {
	out := &Checkpoint{}
	ck.CopyInto(out)
	return out
}

// CopyInto deep-copies the checkpoint into dst, reusing dst's slices and
// map when they are large enough — a warm copy between two same-shape
// checkpoints allocates nothing.
func (ck *Checkpoint) CopyInto(dst *Checkpoint) {
	dst.Graph = ck.Graph
	dst.Completed = ck.Completed
	dst.Digest = ck.Digest
	if dst.Params == nil {
		dst.Params = make(map[string]int64, len(ck.Params))
	}
	for k, v := range ck.Params {
		dst.Params[k] = v
	}
	dst.Nodes = append(dst.Nodes[:0], ck.Nodes...)
	dst.Fired = append(dst.Fired[:0], ck.Fired...)
	dst.Base = append(dst.Base[:0], ck.Base...)
	dst.EdgeNames = append(dst.EdgeNames[:0], ck.EdgeNames...)
	if cap(dst.Edges) < len(ck.Edges) {
		dst.Edges = make([][]any, len(ck.Edges))
	}
	dst.Edges = dst.Edges[:len(ck.Edges)]
	for i, vals := range ck.Edges {
		dst.Edges[i] = append(dst.Edges[i][:0], vals...)
	}
	dst.User = ck.User
}

// newCheckpointArena preallocates the engine's capture arena sized for the
// wired graph, so warm captures never allocate. Per-edge buffers start at
// the current ring capacity and grow only when a ring grows.
func (e *engine) newCheckpointArena() *Checkpoint {
	g := e.cfg.Graph
	ck := &Checkpoint{
		Graph:     g.Name,
		Params:    make(map[string]int64),
		Nodes:     make([]string, len(g.Nodes)),
		Fired:     make([]int64, len(g.Nodes)),
		Base:      make([]int64, len(g.Nodes)),
		EdgeNames: make([]string, len(e.cg.Edges)),
		Edges:     make([][]any, len(e.cg.Edges)),
	}
	for id, n := range g.Nodes {
		ck.Nodes[id] = n.Name
	}
	for ci := range e.cg.Edges {
		ck.EdgeNames[ci] = e.cg.Edges[ci].Name
		ck.Edges[ci] = make([]any, 0, e.rings[ci].cap())
	}
	return ck
}

// capture snapshots the quiescent engine into the arena at a transaction
// barrier (all actors parked — the epoch's drained signal is the
// happens-before edge, exactly as for the metrics harvest) and hands the
// arena to the sink. Warm captures are allocation-free: counters are
// copied into preallocated slices, ring contents peeked into reusable
// buffers, and the valuation map rewritten only at boundaries that changed
// it.
func (e *engine) capture(completed int64, env map[string]int64, digest uint64) {
	ck := e.ckpt
	ck.Completed = completed
	ck.Digest = digest
	if e.ckptParamsStale {
		// Valuations never remove keys, so overwriting suffices.
		for k, v := range env {
			ck.Params[k] = v
		}
		e.ckptParamsStale = false
	}
	for id := range e.actors {
		ck.Fired[id], ck.Base[id] = e.actors[id].fired, e.actors[id].base
	}
	for ci, r := range e.rings {
		n := r.len()
		buf := ck.Edges[ci]
		if int64(cap(buf)) < n {
			buf = make([]any, n)
		} else {
			buf = buf[:n]
		}
		r.peek(buf)
		ck.Edges[ci] = buf
	}
	if e.cfg.SnapshotUser != nil {
		ck.User = e.cfg.SnapshotUser()
	}
	if e.cfg.CheckpointSink != nil {
		e.cfg.CheckpointSink(ck)
	}
}

// validateResume checks a checkpoint against the engine's wired graph
// before its state is installed: same graph name, same nodes, same
// concrete edges in the same order. Compile is deterministic, so a
// checkpoint from the same source graph always lines up; anything else is
// a caller bug worth a clear error.
func (e *engine) validateResume(ck *Checkpoint) error {
	g := e.cfg.Graph
	if ck.Graph != g.Name {
		return fmt.Errorf("engine: resume: checkpoint is for graph %q, not %q", ck.Graph, g.Name)
	}
	if len(ck.Nodes) != len(g.Nodes) || len(ck.Fired) != len(g.Nodes) || len(ck.Base) != len(g.Nodes) {
		return fmt.Errorf("engine: resume: checkpoint has %d nodes, graph has %d", len(ck.Nodes), len(g.Nodes))
	}
	for id, n := range g.Nodes {
		if ck.Nodes[id] != n.Name {
			return fmt.Errorf("engine: resume: node %d is %q in the checkpoint, %q in the graph", id, ck.Nodes[id], n.Name)
		}
	}
	if len(ck.Edges) != len(e.cg.Edges) || len(ck.EdgeNames) != len(e.cg.Edges) {
		return fmt.Errorf("engine: resume: checkpoint has %d edges, graph has %d", len(ck.Edges), len(e.cg.Edges))
	}
	for ci := range e.cg.Edges {
		if ck.EdgeNames[ci] != e.cg.Edges[ci].Name {
			return fmt.Errorf("engine: resume: edge %d is %q in the checkpoint, %q in the graph", ci, ck.EdgeNames[ci], e.cg.Edges[ci].Name)
		}
	}
	return nil
}
