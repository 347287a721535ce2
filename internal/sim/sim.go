// Package sim executes TPDF graphs token-accurately in virtual time.
//
// The simulator implements the §II-B firing semantics that the static
// analyses abstract over:
//
//   - a kernel with a control port waits for a control token; the token
//     selects the mode of the firing (wait-all, select-one, select-many,
//     highest-priority) and therefore which data ports participate;
//   - rejected inputs follow the mode's semantics: highest-priority firings
//     (the racing/deadline pattern) drain the losers' tokens — immediately
//     or through a discard debt for slow producers — so the graph returns
//     to its initial state (Theorem 2); select-one/select-many firings
//     treat the unchosen edges as absent ("removing unused edges", §IV-B),
//     because their deselected producers never emit anything to drain;
//   - Select-duplicate kernels copy each input token onto the currently
//     enabled combination of outputs; Transaction kernels atomically select
//     tokens from one or several inputs — combined with a Clock control
//     actor this yields the highest-priority-at-deadline behaviour of the
//     edge-detection case study (§IV-A);
//   - Clock control actors are watchdog timers firing at multiples of their
//     period, consuming nothing;
//   - control actors win processing elements over kernels when the PE pool
//     is limited (§III-D).
//
// The engine is a deterministic discrete-event loop: firings consume their
// inputs when they start and produce at completion after the actor's
// execution time; events at equal times are processed in a fixed order, so
// every run of a configuration is reproducible.
//
// Two entry styles exist. Run builds a fresh engine per call, which is
// convenient but pays a graph compilation (core.Bind) and state allocation
// every time.
// The analysis sweeps (Fig. 8 buffer grids, capacity minimization) instead
// construct one Simulator per worker and call Reset between runs: after the
// first run the event loop is allocation-free, which is what makes the
// β×N parameter grids cheap enough to shard across cores.
package sim

import (
	"context"

	"repro/internal/core"
	"repro/internal/symb"
)

// ControlToken is the value carried by control channels: the mode the
// receiving kernel must fire in, plus the names of the kernel's data ports
// enabled by selecting modes.
type ControlToken struct {
	Mode     core.Mode
	Selected []string
}

// DecideFunc lets a control actor choose the tokens it emits on its n-th
// firing, keyed by its control-output port name. Missing entries default to
// wait-all. The engine never mutates the returned map, so implementations
// may return a shared precomputed map to keep the hot path allocation-free.
type DecideFunc func(firing int64) map[string]ControlToken

// FireEvent describes one completed firing for tracing.
type FireEvent struct {
	Node     string
	Firing   int64
	Start    int64
	End      int64
	Mode     core.Mode
	Selected []string
}

// Config configures a simulation run.
type Config struct {
	Graph *core.Graph
	// Context, when non-nil, cancels the run: the engine polls it between
	// events and returns its error once it is done.
	Context context.Context
	// Env instantiates the graph's parameters (defaults used when nil).
	Env symb.Env
	// Iterations bounds the run: every node fires at most
	// Iterations × q(node) times. Default 1.
	Iterations int64
	// Processors limits concurrently executing firings; 0 means unlimited.
	Processors int
	// Decide supplies mode decisions per control-actor name.
	Decide map[string]DecideFunc
	// Record stores completed firings in Result.Events.
	Record bool
	// MaxEvents guards against runaway simulations (default 50M).
	MaxEvents int64
	// BuffersOnly skips per-node busy-time accounting and trace
	// bookkeeping: callers that only need buffer totals (high-water marks,
	// final token counts, firing counts) get a leaner event loop. Record
	// is ignored when set.
	BuffersOnly bool
}

// Result reports the outcome of a run.
type Result struct {
	// Time is the virtual time of the last completion.
	Time int64
	// Firings counts completed firings per node.
	Firings []int64
	// HighWater is the maximum token count observed per edge, including
	// initial tokens and control tokens: the buffer capacity the run needs.
	HighWater []int64
	// Final is the per-edge token count at the end of the run.
	Final []int64
	// Quiescent is true when the run ended because nothing could fire any
	// more (as opposed to hitting MaxEvents).
	Quiescent bool
	// Busy accumulates execution time per node (firing durations), the
	// basis for utilization accounting. Zero when BuffersOnly was set.
	Busy []int64
	// Events holds the trace when Config.Record was set.
	Events []FireEvent
}

// TotalBuffer sums the per-edge high-water marks.
func (r *Result) TotalBuffer() int64 {
	var t int64
	for _, v := range r.HighWater {
		t += v
	}
	return t
}

// rateTable holds one direction of an edge's concrete cyclic rates with an
// incremental cursor: firings of the adjacent node are queried in
// non-decreasing order (the engine serializes firings per node), so the
// common case advances the phase by at most one step instead of doing a
// 64-bit modulo per probe. Arbitrary (out-of-order) queries still work via
// the modulo fallback.
type rateTable struct {
	rates []int64
	n     int64 // len(rates), cached to avoid len/int conversions
	idx   int   // rates index corresponding to firing `at`
	at    int64 // firing number the cursor points to
}

func (t *rateTable) init(rates []int64) {
	t.rates = rates
	t.n = int64(len(rates))
	t.idx, t.at = 0, 0
}

func (t *rateTable) reset() { t.idx, t.at = 0, 0 }

// rate returns the rate at firing f.
func (t *rateTable) rate(f int64) int64 {
	if t.n == 1 {
		return t.rates[0]
	}
	switch {
	case f == t.at:
	case f == t.at+1:
		t.idx++
		if int64(t.idx) == t.n {
			t.idx = 0
		}
		t.at = f
	default:
		t.idx = int(f % t.n)
		t.at = f
	}
	return t.rates[t.idx]
}

// ctlQueue is a growable ring buffer of control tokens. Reset keeps the
// backing array, so steady-state operation never allocates.
type ctlQueue struct {
	buf  []ControlToken
	head int
	n    int
}

func (q *ctlQueue) len() int { return q.n }

func (q *ctlQueue) reset() { q.head, q.n = 0, 0 }

func (q *ctlQueue) push(t ControlToken) {
	if q.n == len(q.buf) {
		grown := make([]ControlToken, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

func (q *ctlQueue) front() ControlToken { return q.buf[q.head] }

func (q *ctlQueue) pop() ControlToken {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return t
}

// edgeState is the runtime state of one channel.
type edgeState struct {
	tokens  int64
	ctl     ctlQueue // parallel to tokens for control edges
	debt    int64    // tokens to discard on arrival (rejected ports)
	high    int64
	init    int64 // initial tokens, restored by Reset
	prod    rateTable
	cons    rateTable
	isCtl   bool
	dstPrio int
	dstName string // destination port name (for Selected matching)
}

// arrive adds produced tokens, paying any discard debt first.
func (e *edgeState) arrive(n int64) {
	if e.debt > 0 {
		d := e.debt
		if d > n {
			d = n
		}
		e.debt -= d
		n -= d
	}
	e.tokens += n
	if e.tokens > e.high {
		e.high = e.tokens
	}
}

// pendingFiring is the in-flight firing of one node (firings are serialized
// per node, so each node has at most one).
type pendingFiring struct {
	firing int64
	tok    ControlToken
	active []int // participating data-input edges, aliases nodeState.activeBuf
	start  int64
}

type nodeState struct {
	id      core.NodeID
	fired   int64 // completed firings
	started int64 // started firings (== fired or fired+1; serialized)
	busy    bool
	// lastTok is the most recent control token; firings whose control rate
	// is 0 reuse it entirely (mode and port selection), per §II-B.
	lastTok  ControlToken
	limit    int64 // Iterations × q
	isCtl    bool
	isClock  bool
	inEdges  []int // edge indices with Dst == id, data ports only
	ctlEdge  int   // edge index feeding the control port, -1 if none
	outEdges []int // edge indices with Src == id (data and control)
	nextTick int64 // clocks: next tick time
	pf       pendingFiring
	// activeBuf is the reusable backing array for pf.active; its capacity
	// is len(inEdges), the most edges a firing can involve.
	activeBuf []int
}

type event struct {
	time int64
	seq  int64
	kind int // 0 = completion, 1 = clock tick
	node int
}

// eventQueue is a typed binary min-heap ordered by (time, seq). Unlike
// container/heap it moves events without boxing them through interface
// values, so pushes and pops never allocate once the backing array has
// grown to the run's high-water mark (bounded by one in-flight completion
// plus one scheduled tick per node).
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int { return len(q.a) }

func (q *eventQueue) reset() { q.a = q.a[:0] }

func (q *eventQueue) less(i, j int) bool {
	if q.a[i].time != q.a[j].time {
		return q.a[i].time < q.a[j].time
	}
	return q.a[i].seq < q.a[j].seq
}

func (q *eventQueue) push(ev event) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a = q.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.a[i], q.a[smallest] = q.a[smallest], q.a[i]
		i = smallest
	}
}
