// Package core implements the Transaction Parameterized Dataflow (TPDF)
// model of computation — the primary contribution of the paper (§II-B).
//
// TPDF extends CSDF with:
//
//   - integer parameters: port rates are symbolic expressions over declared
//     parameters (p, beta*M*N, beta*(N+L), ...);
//   - control actors, control channels and control ports: a control actor
//     sends control tokens that select the mode in which a kernel fires,
//     enabling dynamic topology changes within an iteration;
//   - special data-distribution kernels: Select-duplicate (1 input, n
//     outputs, any enabled combination receives a copy) and Transaction
//     (n inputs, 1 output, atomically selects tokens from its inputs), and
//     Clock control actors (watchdog timers emitting control tokens on
//     timeout), which together express speculation, redundancy with vote,
//     highest-priority-at-deadline and active-data-path selection.
//
// A Graph is purely structural; the static analyses live in
// internal/analysis and the executable semantics in internal/sim. A graph
// is lowered to a concrete internal/csdf graph by evaluating every rate
// under a parameter valuation, keeping every edge present ("ignoring all
// possible configurations", §III-A) — the form scheduling, simulation and
// execution consume. Product code lowers through a Program (Compile, Bind,
// Rebind); Instantiate is the independent reference lowering the
// differential tests compare it against.
package core

import (
	"fmt"
	"strings"

	"repro/internal/symb"
)

// Mode is a kernel firing mode selected by a control token (Definition 2).
type Mode int

const (
	// ModeWaitAll waits until all data inputs are available (CSDF-like).
	ModeWaitAll Mode = iota
	// ModeSelectOne selects exactly one data input (or output); tokens on
	// unselected ports are rejected without breaking dependences.
	ModeSelectOne
	// ModeSelectMany selects a subset of the data inputs (or outputs).
	ModeSelectMany
	// ModeHighestPriority selects the available data input with the highest
	// port priority at the moment the control token arrives (the
	// Transaction-at-deadline behaviour of §IV-A).
	ModeHighestPriority
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeWaitAll:
		return "wait-all"
	case ModeSelectOne:
		return "select-one"
	case ModeSelectMany:
		return "select-many"
	case ModeHighestPriority:
		return "highest-priority"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PortDir distinguishes data inputs, data outputs and control ports.
type PortDir int

const (
	// In is a data input port.
	In PortDir = iota
	// Out is a data output port.
	Out
	// CtlIn is the (unique) control input port of a kernel.
	CtlIn
	// CtlOut is a control output port of a control actor.
	CtlOut
)

// String returns the direction name.
func (d PortDir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case CtlIn:
		return "ctl-in"
	case CtlOut:
		return "ctl-out"
	default:
		return fmt.Sprintf("PortDir(%d)", int(d))
	}
}

// Port is a typed connection point on a node. Rates is the cyclo-static
// sequence of symbolic rates (length >= 1); Priority is the α function of
// Definition 2 (larger = higher priority).
type Port struct {
	Name     string
	Dir      PortDir
	Rates    []symb.Expr
	Priority int
}

// RateAt returns the rate expression of the n-th firing.
func (p *Port) RateAt(n int64) symb.Expr {
	return p.Rates[int(n%int64(len(p.Rates)))]
}

// NodeKind separates kernels from control actors (K ∩ G = ∅).
type NodeKind int

const (
	// KindKernel is a computation kernel (element of K).
	KindKernel NodeKind = iota
	// KindControl is a control actor (element of G).
	KindControl
)

// SpecialKind tags the data-distribution kernels defined by TPDF.
type SpecialKind int

const (
	// SpecialNone is an ordinary kernel.
	SpecialNone SpecialKind = iota
	// SpecialSelectDup is a Select-duplicate kernel: one entry, n outputs;
	// each input token is copied to every currently-enabled output.
	SpecialSelectDup
	// SpecialTransaction is a Transaction kernel: n inputs, one output;
	// atomically selects a predefined number of tokens from one or several
	// inputs.
	SpecialTransaction
)

// NodeID identifies a node within its graph.
type NodeID int

// EdgeID identifies an edge within its graph.
type EdgeID int

// Node is a kernel or control actor.
type Node struct {
	Name  string
	Kind  NodeKind
	Ports []Port
	// Modes lists the modes a control token may select on this kernel.
	// Empty means the kernel always operates dataflow-style (wait-all).
	Modes []Mode
	// Exec is the per-firing execution time sequence (cyclic; see
	// csdf.Actor.Exec for conventions).
	Exec []int64
	// ClockPeriod > 0 makes a control actor a clock: a watchdog timer that
	// emits its control tokens each time the period elapses.
	ClockPeriod int64
	Special     SpecialKind
}

// PortIndex returns the index of the named port.
func (n *Node) PortIndex(name string) (int, bool) {
	for i := range n.Ports {
		if n.Ports[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// ControlPort returns the index of the node's control input port, if any.
func (n *Node) ControlPort() (int, bool) {
	for i := range n.Ports {
		if n.Ports[i].Dir == CtlIn {
			return i, true
		}
	}
	return 0, false
}

// DataIns returns the indices of the data input ports.
func (n *Node) DataIns() []int {
	var out []int
	for i := range n.Ports {
		if n.Ports[i].Dir == In {
			out = append(out, i)
		}
	}
	return out
}

// DataOuts returns the indices of the data output ports.
func (n *Node) DataOuts() []int {
	var out []int
	for i := range n.Ports {
		if n.Ports[i].Dir == Out {
			out = append(out, i)
		}
	}
	return out
}

// Edge is a FIFO channel between two ports. An edge is a control channel
// iff its destination port is a control port; Validate enforces that control
// channels originate at control actors (E_c ⊆ O_G × C).
type Edge struct {
	Name    string
	Src     NodeID
	SrcPort int
	Dst     NodeID
	DstPort int
	Initial int64
}

// Param is a declared integer parameter with its legal range and the default
// used when an evaluation environment omits it.
type Param struct {
	Name    string
	Default int64
	Min     int64
	Max     int64
}

// checkValue applies the one parameter range rule both lowerings enforce:
// a value is at least 1 and inside the declared [Min, Max] (0 = unbounded).
func (p Param) checkValue(v int64) error {
	if v < 1 {
		return fmt.Errorf("core: parameter %s = %d; parameters must be >= 1", p.Name, v)
	}
	if p.Min > 0 && v < p.Min {
		return fmt.Errorf("core: parameter %s = %d below declared minimum %d", p.Name, v, p.Min)
	}
	if p.Max > 0 && v > p.Max {
		return fmt.Errorf("core: parameter %s = %d above declared maximum %d", p.Name, v, p.Max)
	}
	return nil
}

// Graph is a TPDF graph (Definition 2): kernels K, control actors G, edges
// E, parameters P, rate functions (on the ports), priorities α and initial
// channel status φ*.
type Graph struct {
	Name   string
	Nodes  []*Node
	Edges  []*Edge
	Params []Param

	byName map[string]NodeID
}

// NewGraph returns an empty TPDF graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, byName: map[string]NodeID{}}
}

// AddParam declares an integer parameter. Min/Max of 0 mean "unbounded
// below/above 1"; parameters are always at least 1.
func (g *Graph) AddParam(name string, def, min, max int64) {
	g.Params = append(g.Params, Param{Name: name, Default: def, Min: min, Max: max})
}

// ParamNames returns the declared parameter names in order.
func (g *Graph) ParamNames() []string {
	out := make([]string, len(g.Params))
	for i, p := range g.Params {
		out[i] = p.Name
	}
	return out
}

// DefaultEnv returns an environment with every parameter at its default.
func (g *Graph) DefaultEnv() symb.Env {
	env := symb.Env{}
	for _, p := range g.Params {
		d := p.Default
		if d == 0 {
			d = 1
		}
		env[p.Name] = d
	}
	return env
}

func (g *Graph) addNode(n *Node) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, n)
	if _, dup := g.byName[n.Name]; !dup {
		g.byName[n.Name] = id
	}
	return id
}

// AddKernel adds a computation kernel with the given cyclic execution-time
// sequence and returns its id.
func (g *Graph) AddKernel(name string, exec ...int64) NodeID {
	return g.addNode(&Node{Name: name, Kind: KindKernel, Exec: exec})
}

// AddControlActor adds a plain control actor.
func (g *Graph) AddControlActor(name string, exec ...int64) NodeID {
	return g.addNode(&Node{Name: name, Kind: KindControl, Exec: exec})
}

// AddClock adds a clock control actor: a watchdog timer with the given
// period (in the simulator's time unit) that emits control tokens each time
// it times out (§II-B c).
func (g *Graph) AddClock(name string, period int64) NodeID {
	return g.addNode(&Node{Name: name, Kind: KindControl, ClockPeriod: period})
}

// AddSelectDuplicate adds a Select-duplicate kernel (§II-B a).
func (g *Graph) AddSelectDuplicate(name string, exec ...int64) NodeID {
	id := g.addNode(&Node{Name: name, Kind: KindKernel, Special: SpecialSelectDup, Exec: exec})
	g.Nodes[id].Modes = []Mode{ModeSelectOne, ModeSelectMany, ModeWaitAll}
	return id
}

// AddTransaction adds a Transaction kernel (§II-B b).
func (g *Graph) AddTransaction(name string, exec ...int64) NodeID {
	id := g.addNode(&Node{Name: name, Kind: KindKernel, Special: SpecialTransaction, Exec: exec})
	g.Nodes[id].Modes = []Mode{ModeSelectOne, ModeSelectMany, ModeHighestPriority, ModeWaitAll}
	return id
}

// SetModes replaces the mode set of a kernel.
func (g *Graph) SetModes(id NodeID, modes ...Mode) {
	g.Nodes[id].Modes = modes
}

// NodeByName returns the id of the named node.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// AddPort adds a port to a node; rates is a rate-sequence expression (see
// ParseRates). It returns the port index.
func (g *Graph) AddPort(id NodeID, name string, dir PortDir, rates string, priority int) (int, error) {
	seq, err := ParseRates(rates)
	if err != nil {
		return 0, fmt.Errorf("core: port %s.%s: %v", g.Nodes[id].Name, name, err)
	}
	n := g.Nodes[id]
	if _, dup := n.PortIndex(name); dup {
		return 0, fmt.Errorf("core: duplicate port %s.%s", n.Name, name)
	}
	n.Ports = append(n.Ports, Port{Name: name, Dir: dir, Rates: seq, Priority: priority})
	return len(n.Ports) - 1, nil
}

// Connect adds a data edge src -> dst, creating one output port on src with
// rate sequence prodRates and one input port on dst with rate sequence
// consRates. Ports are auto-named "o<k>"/"i<k>". It returns the edge id.
func (g *Graph) Connect(src NodeID, prodRates string, dst NodeID, consRates string, initial int64) (EdgeID, error) {
	sp, err := g.AddPort(src, fmt.Sprintf("o%d", len(g.Nodes[src].DataOuts())), Out, prodRates, 0)
	if err != nil {
		return 0, err
	}
	dp, err := g.AddPort(dst, fmt.Sprintf("i%d", len(g.Nodes[dst].DataIns())), In, consRates, 0)
	if err != nil {
		return 0, err
	}
	return g.connectPorts(src, sp, dst, dp, initial), nil
}

// ConnectPriority is Connect with an explicit priority on the consumer port
// (the α function used by highest-priority modes).
func (g *Graph) ConnectPriority(src NodeID, prodRates string, dst NodeID, consRates string, initial int64, consPriority int) (EdgeID, error) {
	id, err := g.Connect(src, prodRates, dst, consRates, initial)
	if err != nil {
		return 0, err
	}
	e := g.Edges[id]
	g.Nodes[e.Dst].Ports[e.DstPort].Priority = consPriority
	return id, nil
}

// ConnectControl adds a control channel from a control actor to a kernel's
// control port (created on demand with consumption rate 1 per firing).
// prodRates is the control actor's output rate sequence.
func (g *Graph) ConnectControl(ctrl NodeID, prodRates string, dst NodeID, initial int64) (EdgeID, error) {
	sp, err := g.AddPort(ctrl, fmt.Sprintf("c%d", len(g.Nodes[ctrl].Ports)), CtlOut, prodRates, 0)
	if err != nil {
		return 0, err
	}
	n := g.Nodes[dst]
	dp, ok := n.ControlPort()
	if !ok {
		dp, err = g.AddPort(dst, "ctl", CtlIn, "[1]", 0)
		if err != nil {
			return 0, err
		}
	}
	return g.connectPorts(ctrl, sp, dst, dp, initial), nil
}

// ConnectPorts links two previously created ports directly (see AddPort);
// the general form behind the Connect convenience wrappers, needed when a
// port requires an explicit rate sequence, direction or priority.
func (g *Graph) ConnectPorts(src NodeID, srcPort int, dst NodeID, dstPort int, initial int64) (EdgeID, error) {
	if int(src) >= len(g.Nodes) || int(dst) >= len(g.Nodes) || src < 0 || dst < 0 {
		return 0, fmt.Errorf("core: ConnectPorts: node out of range")
	}
	if srcPort < 0 || srcPort >= len(g.Nodes[src].Ports) || dstPort < 0 || dstPort >= len(g.Nodes[dst].Ports) {
		return 0, fmt.Errorf("core: ConnectPorts: port out of range")
	}
	return g.connectPorts(src, srcPort, dst, dstPort, initial), nil
}

func (g *Graph) connectPorts(src NodeID, sp int, dst NodeID, dp int, initial int64) EdgeID {
	id := EdgeID(len(g.Edges))
	g.Edges = append(g.Edges, &Edge{
		Name: fmt.Sprintf("e%d", len(g.Edges)+1),
		Src:  src, SrcPort: sp,
		Dst: dst, DstPort: dp,
		Initial: initial,
	})
	return id
}

// IsControlEdge reports whether e terminates at a control port.
func (g *Graph) IsControlEdge(e *Edge) bool {
	return g.Nodes[e.Dst].Ports[e.DstPort].Dir == CtlIn
}

// ParseRates parses a rate-sequence string: either a single expression
// ("p", "2", "beta*(N+L)") or a bracketed comma list ("[1,0,1]", "[p,p]").
func ParseRates(s string) ([]symb.Expr, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("unterminated rate list %q", s)
		}
		inner := s[1 : len(s)-1]
		parts := splitTop(inner)
		if len(parts) == 0 {
			return nil, fmt.Errorf("empty rate list %q", s)
		}
		out := make([]symb.Expr, len(parts))
		for i, p := range parts {
			e, err := symb.ParseExpr(p)
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}
	e, err := symb.ParseExpr(s)
	if err != nil {
		return nil, err
	}
	return []symb.Expr{e}, nil
}

// splitTop splits on commas not nested inside parentheses.
func splitTop(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if strings.TrimSpace(s[start:]) != "" || len(parts) > 0 {
		parts = append(parts, s[start:])
	}
	return parts
}

// FormatRates renders a rate sequence in the bracketed notation.
func FormatRates(seq []symb.Expr) string {
	if len(seq) == 1 {
		return "[" + seq[0].String() + "]"
	}
	parts := make([]string, len(seq))
	for i, e := range seq {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// String renders the graph structure.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tpdf.Graph %q: %d nodes, %d edges", g.Name, len(g.Nodes), len(g.Edges))
	if len(g.Params) > 0 {
		b.WriteString(", params")
		for _, p := range g.Params {
			fmt.Fprintf(&b, " %s", p.Name)
		}
	}
	b.WriteByte('\n')
	for _, e := range g.Edges {
		src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
		kind := ""
		if g.IsControlEdge(e) {
			kind = " (control)"
		}
		fmt.Fprintf(&b, "  %s: %s.%s %s -> %s %s.%s%s",
			e.Name,
			src.Name, src.Ports[e.SrcPort].Name, FormatRates(src.Ports[e.SrcPort].Rates),
			FormatRates(dst.Ports[e.DstPort].Rates), dst.Name, dst.Ports[e.DstPort].Name, kind)
		if e.Initial > 0 {
			fmt.Fprintf(&b, " init=%d", e.Initial)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
