package sim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/csdf"
)

// Run executes the configuration once and returns the metrics. It builds a
// fresh Simulator per call; sweep drivers that execute one configuration
// (or one graph) many times should construct a Simulator and Reset it
// between runs instead, which keeps the event loop allocation-free.
func Run(cfg Config) (*Result, error) {
	s, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Simulator is a reusable simulation engine: all per-run state (node and
// edge state, the event queue, result vectors) is preallocated at
// construction and restored by Reset, so repeated runs of one
// configuration do not allocate. A Simulator is not safe for concurrent
// use; sweep drivers give each worker its own.
type Simulator struct {
	cfg   Config
	g     *core.Graph
	cg    *csdf.Graph    // concrete graph whose rate slices the tables alias
	low   *core.Lowering // node/edge correspondence into cg
	q     []int64        // concrete repetition vector per node
	nodes []nodeState
	edges []edgeState
	exec  [][]int64 // per node, cyclic execution times (nil = zero)
	// ctlOrder lists node indices control actors first (§III-D), the fixed
	// scan order of startAllEnabled.
	ctlOrder []int

	events   eventQueue
	caps     []int64 // per-edge capacities; nil or <0 entries unbounded
	seq      int64
	now      int64
	inFlight int
	total    int64 // completed firings
	res      Result
	ctr      Counters
}

// Counters accumulates lightweight lifetime statistics across every run of
// one simulator (they survive Reset, unlike the Result). Plain fields,
// owned by the simulator's single goroutine; read them via Counters after
// a run. tpdf.Simulate publishes them to an obs.Registry when metrics are
// attached.
type Counters struct {
	// Runs and Resets count Run and Reset calls; Events, Firings and
	// ClockTicks count processed heap events by kind across all runs.
	Runs       int64
	Resets     int64
	Events     int64
	Firings    int64
	ClockTicks int64
	// MaxEventQueue is the event heap's high-water mark.
	MaxEventQueue int64
}

// Counters returns the lifetime counters accumulated so far.
func (s *Simulator) Counters() Counters { return s.ctr }

// NewSimulator binds a Program of cfg.Graph at cfg.Env (core.Bind) and
// builds a simulator over it: NewSimulatorFromProgram for callers that do
// not hold a Program already.
func NewSimulator(cfg Config) (*Simulator, error) {
	prog, err := core.Bind(cfg.Graph, cfg.Env)
	if err != nil {
		return nil, err
	}
	return NewSimulatorFromProgram(prog, cfg)
}

// NewSimulatorFromProgram builds a simulator over a bound program's current
// valuation, preallocating every piece of run state (the program already
// holds the concrete graph and the repetition vector). cfg.Graph and
// cfg.Env are ignored; the program supplies them. The simulator's rate
// tables alias the program's concrete graph: after prog.Rebind, call
// BindProgram to refresh the firing limits and reset the run state.
// Several simulators may share one program concurrently as long as nobody
// calls Rebind while any of them is running.
func NewSimulatorFromProgram(prog *core.Program, cfg Config) (*Simulator, error) {
	if !prog.Bound() {
		return nil, fmt.Errorf("sim: program is unbound; call Rebind before building a simulator")
	}
	g, cg, low, q := prog.Source(), prog.Concrete(), prog.Lowering(), prog.Solution().Q
	cfg.Graph = g
	cfg.Env = nil
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 1
	}
	s := &Simulator{cfg: cfg, g: g, cg: cg, low: low}
	s.nodes = make([]nodeState, len(g.Nodes))
	s.exec = make([][]int64, len(g.Nodes))
	s.q = make([]int64, len(g.Nodes))
	for i, n := range g.Nodes {
		ns := &s.nodes[i]
		ns.id = core.NodeID(i)
		ns.ctlEdge = -1
		s.q[i] = q[low.ActorOf[i]]
		ns.limit = iters * s.q[i]
		ns.isCtl = n.Kind == core.KindControl
		ns.isClock = n.Kind == core.KindControl && n.ClockPeriod > 0
		ns.lastTok = ControlToken{Mode: core.ModeWaitAll}
		s.exec[i] = n.Exec
	}
	s.edges = make([]edgeState, len(g.Edges))
	for ei, e := range g.Edges {
		ce := cg.Edges[low.EdgeOf[ei]]
		dst := g.Nodes[e.Dst]
		dp := dst.Ports[e.DstPort]
		es := &s.edges[ei]
		es.prod.init(ce.Prod)
		es.cons.init(ce.Cons)
		es.init = ce.Initial
		es.isCtl = dp.Dir == core.CtlIn
		es.dstPrio = dp.Priority
		es.dstName = dp.Name
		if es.isCtl {
			s.nodes[e.Dst].ctlEdge = ei
		} else {
			s.nodes[e.Dst].inEdges = append(s.nodes[e.Dst].inEdges, ei)
		}
		s.nodes[e.Src].outEdges = append(s.nodes[e.Src].outEdges, ei)
	}
	for i := range s.nodes {
		s.nodes[i].activeBuf = make([]int, 0, len(s.nodes[i].inEdges))
	}
	s.ctlOrder = make([]int, 0, len(s.nodes))
	for i := range s.nodes {
		if s.nodes[i].isCtl {
			s.ctlOrder = append(s.ctlOrder, i)
		}
	}
	for i := range s.nodes {
		if !s.nodes[i].isCtl {
			s.ctlOrder = append(s.ctlOrder, i)
		}
	}
	s.res = Result{
		Firings:   make([]int64, len(g.Nodes)),
		Busy:      make([]int64, len(g.Nodes)),
		HighWater: make([]int64, len(g.Edges)),
		Final:     make([]int64, len(g.Edges)),
	}
	// Serialized firings bound the queue: at most one completion in flight
	// plus one scheduled tick per node.
	s.events.a = make([]event, 0, 2*len(g.Nodes))
	s.start()
	return s, nil
}

// start restores the pre-run state: initial tokens, initial wait-all
// control tokens, clock ticks. Shared by NewSimulator and Reset.
func (s *Simulator) start() {
	for ei := range s.edges {
		es := &s.edges[ei]
		es.tokens = es.init
		es.high = es.init
		es.debt = 0
		es.prod.reset()
		es.cons.reset()
		es.ctl.reset()
		if es.isCtl {
			// Pre-existing control tokens default to wait-all.
			for k := int64(0); k < es.init; k++ {
				es.ctl.push(ControlToken{Mode: core.ModeWaitAll})
			}
		}
	}
	for i := range s.nodes {
		ns := &s.nodes[i]
		ns.fired, ns.started = 0, 0
		ns.busy = false
		ns.lastTok = ControlToken{Mode: core.ModeWaitAll}
		ns.nextTick = 0
		ns.pf = pendingFiring{}
		ns.activeBuf = ns.activeBuf[:0]
	}
	s.events.reset()
	s.seq, s.now, s.inFlight, s.total = 0, 0, 0, 0
	for i := range s.res.Firings {
		s.res.Firings[i] = 0
		s.res.Busy[i] = 0
	}
	for ei := range s.res.HighWater {
		s.res.HighWater[ei] = 0
		s.res.Final[ei] = 0
	}
	s.res.Time = 0
	s.res.Quiescent = false
	s.res.Events = s.res.Events[:0]
	// Clock initial ticks.
	for i, n := range s.g.Nodes {
		if s.nodes[i].isClock {
			s.nodes[i].nextTick = n.ClockPeriod
			s.push(event{time: n.ClockPeriod, kind: 1, node: i})
		}
	}
}

// Reset restores the simulator to its initial state so Run can execute the
// configuration again. Results returned by previous Run calls alias the
// simulator's internal vectors and are invalidated. Lifetime Counters are
// not reset.
func (s *Simulator) Reset() {
	s.ctr.Resets++
	s.start()
}

// SetCapacities installs per-edge channel capacities for subsequent runs
// (nil restores unbounded execution; a negative entry means unbounded,
// zero means the channel can never hold a token). The slice is retained,
// not copied.
func (s *Simulator) SetCapacities(caps []int64) error {
	if caps != nil && len(caps) != len(s.edges) {
		return fmt.Errorf("sim: %d capacities for %d edges", len(caps), len(s.edges))
	}
	s.caps = caps
	return nil
}

// SetDecide replaces the control-decision table for subsequent runs.
func (s *Simulator) SetDecide(decide map[string]DecideFunc) {
	s.cfg.Decide = decide
}

// SetIterations rebounds the run to n graph iterations (effective after
// the next Reset for an engine that already ran).
func (s *Simulator) SetIterations(n int64) {
	if n <= 0 {
		n = 1
	}
	s.cfg.Iterations = n
	for i := range s.nodes {
		s.nodes[i].limit = n * s.q[i]
	}
}

// BindProgram refreshes the simulator after prog.Rebind moved the bound
// program to a new valuation: the rate tables already alias the program's
// concrete graph, so only the repetition vector (firing limits) needs
// re-reading, followed by a Reset. The simulator must have been built by
// NewSimulatorFromProgram over the same program. On the warm path — after
// the first run has grown every queue to its high-water mark —
// Rebind+BindProgram+Run performs zero heap allocations.
func (s *Simulator) BindProgram(prog *core.Program) error {
	if prog.Concrete() != s.cg {
		return fmt.Errorf("sim: simulator is not bound to this program")
	}
	if !prog.Bound() {
		return fmt.Errorf("sim: program is unbound (its last Rebind failed); rebind before running")
	}
	// The rate slices alias the program's concrete graph, which Rebind
	// overwrote in place; only the firing limits are read anew.
	q := prog.Solution().Q
	iters := max(s.cfg.Iterations, 1)
	for i := range s.nodes {
		s.q[i] = q[s.low.ActorOf[i]]
		s.nodes[i].limit = iters * s.q[i]
	}
	s.Reset()
	return nil
}

func (s *Simulator) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.events.push(ev)
}

func (s *Simulator) maxEvents() int64 {
	if s.cfg.MaxEvents > 0 {
		return s.cfg.MaxEvents
	}
	return 50_000_000
}

// Run executes until quiescence and returns the metrics. The Result points
// into the simulator's preallocated state: it remains valid until the next
// Reset. Callers that keep results across runs must copy what they need.
func (s *Simulator) Run() (*Result, error) {
	s.ctr.Runs++
	s.startAllEnabled()
	var processed int64
	for s.events.len() > 0 {
		if n := int64(s.events.len()); n > s.ctr.MaxEventQueue {
			s.ctr.MaxEventQueue = n
		}
		if processed++; processed > s.maxEvents() {
			return nil, fmt.Errorf("sim: exceeded %d events at t=%d", s.maxEvents(), s.now)
		}
		if s.cfg.Context != nil {
			if err := s.cfg.Context.Err(); err != nil {
				return nil, fmt.Errorf("sim: cancelled at t=%d: %w", s.now, err)
			}
		}
		ev := s.events.pop()
		s.now = ev.time
		s.ctr.Events++
		switch ev.kind {
		case 0:
			s.ctr.Firings++
			s.complete(ev.node)
		case 1:
			s.ctr.ClockTicks++
			s.clockTick(ev.node)
		}
		s.startAllEnabled()
	}
	s.res.Time = s.now
	s.res.Quiescent = true
	for ei := range s.edges {
		s.res.Final[ei] = s.edges[ei].tokens
		s.res.HighWater[ei] = s.edges[ei].high
	}
	return &s.res, nil
}

// startAllEnabled starts every enabled firing, control actors first
// (§III-D), respecting the PE pool.
func (s *Simulator) startAllEnabled() {
	for {
		progressed := false
		for _, i := range s.ctlOrder {
			if s.cfg.Processors > 0 && s.inFlight >= s.cfg.Processors {
				return
			}
			if s.tryStart(i) {
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// tryStart begins one firing of node i if it is enabled.
func (s *Simulator) tryStart(i int) bool {
	ns := &s.nodes[i]
	if ns.busy || ns.started >= ns.limit || ns.isClock {
		return false
	}
	firing := ns.started
	if !s.outputsHaveRoom(i, firing) {
		return false // bounded-buffer back-pressure
	}

	tok := ns.lastTok
	needsCtl := false
	if ns.ctlEdge >= 0 {
		ce := &s.edges[ns.ctlEdge]
		if ce.cons.rate(firing) > 0 {
			needsCtl = true
			if ce.tokens < 1 || ce.ctl.len() == 0 {
				return false // §II-B: wait until the control port is available
			}
			tok = ce.ctl.front()
		}
	}

	active, ok := s.activeInputs(i, firing, tok)
	if !ok {
		return false
	}

	// Commit: consume control token, consume active inputs, register
	// discard debt on rejected inputs.
	if needsCtl {
		ce := &s.edges[ns.ctlEdge]
		ce.tokens--
		ce.ctl.pop()
		ns.lastTok = tok
	}
	for _, ei := range active {
		es := &s.edges[ei]
		es.tokens -= es.cons.rate(firing)
	}
	// Rejected-input handling depends on the mode's semantics:
	//
	//   - highest-priority (the racing/deadline pattern) *drains*: the
	//     losers' tokens of this round are removed — immediately if present,
	//     via discard debt if the slow producer finishes later ("remove
	//     remaining tokens", §II);
	//   - select-one/select-many reconfigure the topology: the unchosen
	//     edges are absent this iteration ("allowing to remove unused
	//     edges", §IV-B), their producers never produce, so nothing must be
	//     drained — draining would steal tokens from a later iteration that
	//     re-enables the branch.
	if tok.Mode == core.ModeHighestPriority && ns.ctlEdge >= 0 {
		for _, ei := range ns.inEdges {
			if slices.Contains(active, ei) {
				continue
			}
			es := &s.edges[ei]
			rate := es.cons.rate(firing)
			if rate == 0 {
				continue
			}
			// Remove what is present, owe the rest.
			avail := rate
			if es.tokens < avail {
				avail = es.tokens
			}
			es.tokens -= avail
			es.debt += rate - avail
		}
	}

	ns.busy = true
	ns.started++
	s.inFlight++
	dur := int64(0)
	if len(s.exec[i]) > 0 {
		dur = s.exec[i][int(firing%int64(len(s.exec[i])))]
	}
	ns.pf = pendingFiring{firing: firing, tok: tok, active: active, start: s.now}
	s.push(event{time: s.now + dur, kind: 0, node: i})
	return true
}

// activeInputs decides which data input edges participate in this firing
// under the mode, and whether the firing is enabled now. The returned
// slice aliases the node's reusable active buffer (firings are serialized
// per node, so at most one is live at a time).
func (s *Simulator) activeInputs(i int, firing int64, tok ControlToken) ([]int, bool) {
	ns := &s.nodes[i]
	mode := tok.Mode
	if ns.ctlEdge < 0 {
		mode = core.ModeWaitAll // kernels without control ports are dataflow
	}
	act := ns.activeBuf[:0]
	switch mode {
	case core.ModeWaitAll:
		for _, ei := range ns.inEdges {
			es := &s.edges[ei]
			rate := es.cons.rate(firing)
			if rate == 0 {
				continue
			}
			if es.tokens < rate {
				return nil, false
			}
			act = append(act, ei)
		}
		return act, true
	case core.ModeSelectOne, core.ModeSelectMany:
		for _, ei := range ns.inEdges {
			es := &s.edges[ei]
			rate := es.cons.rate(firing)
			if rate == 0 || !slices.Contains(tok.Selected, es.dstName) {
				continue
			}
			if es.tokens < rate {
				return nil, false
			}
			act = append(act, ei)
		}
		if len(act) == 0 {
			// Selection names no input port: for a Select-duplicate the
			// choice concerns outputs; inputs behave wait-all.
			for _, ei := range ns.inEdges {
				es := &s.edges[ei]
				rate := es.cons.rate(firing)
				if rate == 0 {
					continue
				}
				if es.tokens < rate {
					return nil, false
				}
				act = append(act, ei)
			}
		}
		return act, true
	case core.ModeHighestPriority:
		best := -1
		for _, ei := range ns.inEdges {
			es := &s.edges[ei]
			rate := es.cons.rate(firing)
			if rate == 0 || es.tokens < rate {
				continue
			}
			if best < 0 || es.dstPrio > s.edges[best].dstPrio {
				best = ei
			}
		}
		if best < 0 {
			return nil, false // wait until any input becomes available
		}
		return append(act, best), true
	default:
		return nil, false
	}
}

// complete finishes the pending firing of node i: produce outputs, emit
// control tokens, free the PE.
func (s *Simulator) complete(i int) {
	ns := &s.nodes[i]
	if !ns.busy {
		return
	}
	pf := ns.pf

	n := s.g.Nodes[i]
	firing := pf.firing

	// Output selection: select modes on a Select-duplicate choose outputs.
	selectingOutputs := n.Special == core.SpecialSelectDup &&
		(pf.tok.Mode == core.ModeSelectOne || pf.tok.Mode == core.ModeSelectMany) &&
		len(pf.tok.Selected) > 0

	var decision map[string]ControlToken
	if ns.isCtl {
		if d, ok := s.cfg.Decide[n.Name]; ok {
			decision = d(firing)
		}
	}

	for _, ei := range ns.outEdges {
		es := &s.edges[ei]
		rate := es.prod.rate(firing)
		if rate == 0 {
			continue
		}
		srcPort := s.g.Nodes[i].Ports[s.g.Edges[ei].SrcPort].Name
		if selectingOutputs && !es.isCtl && !slices.Contains(pf.tok.Selected, srcPort) {
			continue // unchosen output: tokens are never produced
		}
		if es.isCtl {
			tok := ControlToken{Mode: core.ModeWaitAll}
			if decision != nil {
				if t, ok := decision[srcPort]; ok {
					tok = t
				}
			}
			for k := int64(0); k < rate; k++ {
				es.ctl.push(tok)
			}
		}
		es.arrive(rate)
	}

	ns.busy = false
	ns.fired++
	s.inFlight--
	s.total++
	s.res.Firings[i]++
	if s.cfg.BuffersOnly {
		return
	}
	if s.res.Time < s.now {
		s.res.Time = s.now
	}
	s.res.Busy[i] += s.now - pf.start

	if s.cfg.Record || s.cfg.OnFire != nil {
		ev := FireEvent{
			Node: n.Name, Firing: firing, Start: pf.start, End: s.now,
			Mode: pf.tok.Mode, Selected: s.selectedNames(pf),
		}
		if s.cfg.Record {
			s.res.Events = append(s.res.Events, ev)
		}
		if s.cfg.OnFire != nil {
			s.cfg.OnFire(ev)
		}
	}
}

// selectedNames reports the destination port names that actually
// participated in a firing (for tracing the transaction's choice).
func (s *Simulator) selectedNames(pf pendingFiring) []string {
	if len(pf.active) == 0 {
		return nil
	}
	names := make([]string, 0, len(pf.active))
	for _, ei := range pf.active {
		names = append(names, s.edges[ei].dstName)
	}
	sort.Strings(names)
	return names
}

// clockTick fires a clock control actor: no consumption, immediate
// production of its control tokens after its execution time.
func (s *Simulator) clockTick(i int) {
	ns := &s.nodes[i]
	if ns.started >= ns.limit {
		return // clock exhausted its iteration budget; stop ticking
	}
	if ns.busy || !s.outputsHaveRoom(i, ns.started) {
		// Busy (long Exec) or back-pressured at tick time: skip to the
		// next period, as a watchdog would.
		ns.nextTick += s.g.Nodes[i].ClockPeriod
		s.push(event{time: ns.nextTick, kind: 1, node: i})
		return
	}
	ns.busy = true
	ns.started++
	s.inFlight++
	ns.pf = pendingFiring{firing: ns.started - 1, tok: ControlToken{Mode: core.ModeWaitAll}, start: s.now}
	dur := int64(0)
	if len(s.exec[i]) > 0 {
		dur = s.exec[i][int((ns.started-1)%int64(len(s.exec[i])))]
	}
	s.push(event{time: s.now + dur, kind: 0, node: i})
	if ns.started < ns.limit {
		ns.nextTick += s.g.Nodes[i].ClockPeriod
		s.push(event{time: ns.nextTick, kind: 1, node: i})
	}
}
