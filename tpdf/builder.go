package tpdf

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// GraphBuilder constructs a TPDF graph fluently. Every method records its
// error instead of returning it, so a whole topology can be declared in one
// chain and checked once at Build:
//
//	g, err := tpdf.NewGraph("pipeline").
//		Param("p", 4, 1, 64).
//		Kernel("A", 1).
//		Kernel("B", 2).
//		Connect("A[p] -> B[1]").
//		Build()
//
// Edge specs are "SRC[rates] -> DST[rates]" for data channels and
// "CTL[rates] => DST" for control channels (the kernel's control port is
// created on demand). Rates are cyclo-static sequences of symbolic
// expressions, e.g. "1", "p", "2,0,1" or "beta*(N+L)". Two options may
// follow the destination: "init=N" places N initial tokens on the channel
// and "prio=N" sets the consumer port's priority (the α function used by
// highest-priority modes).
type GraphBuilder struct {
	g    *core.Graph
	errs []error
}

// NewGraph starts building a graph with the given name.
func NewGraph(name string) *GraphBuilder {
	return &GraphBuilder{g: core.NewGraph(name)}
}

func (b *GraphBuilder) errf(format string, args ...any) *GraphBuilder {
	b.errs = append(b.errs, fmt.Errorf("tpdf: "+format, args...))
	return b
}

func (b *GraphBuilder) addNode(name string, add func() NodeID) *GraphBuilder {
	if name == "" {
		return b.errf("empty node name")
	}
	if _, dup := b.g.NodeByName(name); dup {
		return b.errf("duplicate node %q", name)
	}
	add()
	return b
}

// Param declares an integer parameter with its default and legal range.
// Zero min/max mean "unbounded below/above 1".
func (b *GraphBuilder) Param(name string, def, min, max int64) *GraphBuilder {
	for _, p := range b.g.Params {
		if p.Name == name {
			return b.errf("duplicate parameter %q", name)
		}
	}
	b.g.AddParam(name, def, min, max)
	return b
}

// Kernel adds a computation kernel with the given cyclic execution-time
// sequence.
func (b *GraphBuilder) Kernel(name string, exec ...int64) *GraphBuilder {
	return b.addNode(name, func() NodeID { return b.g.AddKernel(name, exec...) })
}

// ControlActor adds a plain control actor.
func (b *GraphBuilder) ControlActor(name string, exec ...int64) *GraphBuilder {
	return b.addNode(name, func() NodeID { return b.g.AddControlActor(name, exec...) })
}

// Clock adds a clock control actor: a watchdog timer emitting control
// tokens each time its period elapses.
func (b *GraphBuilder) Clock(name string, period int64) *GraphBuilder {
	if period <= 0 {
		return b.errf("clock %q needs a positive period, got %d", name, period)
	}
	return b.addNode(name, func() NodeID { return b.g.AddClock(name, period) })
}

// SelectDuplicate adds a Select-duplicate kernel (§II-B a): one input, n
// outputs, each token copied to every currently enabled output.
func (b *GraphBuilder) SelectDuplicate(name string, exec ...int64) *GraphBuilder {
	return b.addNode(name, func() NodeID { return b.g.AddSelectDuplicate(name, exec...) })
}

// Transaction adds a Transaction kernel (§II-B b): n inputs, one output,
// atomically selecting tokens from one or several inputs.
func (b *GraphBuilder) Transaction(name string, exec ...int64) *GraphBuilder {
	return b.addNode(name, func() NodeID { return b.g.AddTransaction(name, exec...) })
}

// Modes replaces the mode set a control token may select on the kernel.
func (b *GraphBuilder) Modes(name string, modes ...Mode) *GraphBuilder {
	id, ok := b.g.NodeByName(name)
	if !ok {
		return b.errf("Modes: unknown node %q", name)
	}
	b.g.SetModes(id, modes...)
	return b
}

// Connect wires an edge described by a textual spec (see the type comment
// for the grammar).
func (b *GraphBuilder) Connect(spec string) *GraphBuilder {
	e, err := parseEdgeSpec(spec)
	if err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	src, ok := b.g.NodeByName(e.src)
	if !ok {
		return b.errf("edge %q: unknown source node %q", spec, e.src)
	}
	dst, ok := b.g.NodeByName(e.dst)
	if !ok {
		return b.errf("edge %q: unknown destination node %q", spec, e.dst)
	}
	if e.control {
		if _, err := b.g.ConnectControl(src, "["+e.srcRates+"]", dst, e.initial); err != nil {
			return b.errf("edge %q: %v", spec, err)
		}
		return b
	}
	if _, err := b.g.ConnectPriority(src, "["+e.srcRates+"]", dst, "["+e.dstRates+"]", e.initial, e.priority); err != nil {
		return b.errf("edge %q: %v", spec, err)
	}
	return b
}

// Build finishes the graph: it returns the accumulated declaration errors
// joined together, or the structural validation error, or the graph.
func (b *GraphBuilder) Build() (*Graph, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// edgeSpec is the parsed form of one Connect string.
type edgeSpec struct {
	src, dst           string
	srcRates, dstRates string
	control            bool
	initial            int64
	priority           int
}

// parseEdgeSpec parses "SRC[rates] -> DST[rates] [init=N] [prio=N]" or
// "CTL[rates] => DST [init=N]". The arrow is found at bracket depth 0 so
// rate expressions may contain anything but brackets.
func parseEdgeSpec(spec string) (edgeSpec, error) {
	var e edgeSpec
	arrow := -1
	depth := 0
	for i := 0; i < len(spec)-1; i++ {
		switch spec[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '-', '=':
			if depth == 0 && spec[i+1] == '>' {
				arrow = i
			}
		}
		if arrow >= 0 {
			break
		}
	}
	if arrow < 0 {
		return e, fmt.Errorf("tpdf: edge %q: missing \"->\" or \"=>\"", spec)
	}
	e.control = spec[arrow] == '='

	var err error
	e.src, e.srcRates, err = parseEndpoint(spec, spec[:arrow], true)
	if err != nil {
		return e, err
	}

	tail := strings.TrimSpace(spec[arrow+2:])
	if tail == "" {
		return e, fmt.Errorf("tpdf: edge %q: missing destination", spec)
	}
	dstPart, optPart := tail, ""
	if close := strings.IndexByte(tail, ']'); close >= 0 {
		dstPart, optPart = tail[:close+1], tail[close+1:]
	} else if sp := strings.IndexAny(tail, " \t"); sp >= 0 {
		dstPart, optPart = tail[:sp], tail[sp:]
	}
	e.dst, e.dstRates, err = parseEndpoint(spec, dstPart, !e.control)
	if err != nil {
		return e, err
	}
	if e.control && e.dstRates != "" {
		return e, fmt.Errorf("tpdf: edge %q: control destinations take no rates (the control port consumes 1)", spec)
	}

	for _, opt := range strings.Fields(optPart) {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return e, fmt.Errorf("tpdf: edge %q: bad option %q (want init=N or prio=N)", spec, opt)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return e, fmt.Errorf("tpdf: edge %q: option %q: %v", spec, opt, err)
		}
		switch key {
		case "init":
			e.initial = n
		case "prio":
			if e.control {
				return e, fmt.Errorf("tpdf: edge %q: prio applies to data edges only", spec)
			}
			e.priority = int(n)
		default:
			return e, fmt.Errorf("tpdf: edge %q: unknown option %q", spec, key)
		}
	}
	return e, nil
}

// parseEndpoint splits "NAME[rates]" (rates required iff needRates).
func parseEndpoint(spec, s string, needRates bool) (name, rates string, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '[')
	if open < 0 {
		if needRates {
			return "", "", fmt.Errorf("tpdf: edge %q: endpoint %q needs a rate list like %q", spec, s, s+"[1]")
		}
		if s == "" {
			return "", "", fmt.Errorf("tpdf: edge %q: empty endpoint", spec)
		}
		return s, "", nil
	}
	if !strings.HasSuffix(s, "]") {
		return "", "", fmt.Errorf("tpdf: edge %q: unterminated rate list in %q", spec, s)
	}
	name = strings.TrimSpace(s[:open])
	if name == "" {
		return "", "", fmt.Errorf("tpdf: edge %q: endpoint %q has no node name", spec, s)
	}
	rates = s[open+1 : len(s)-1]
	if strings.TrimSpace(rates) == "" {
		return "", "", fmt.Errorf("tpdf: edge %q: empty rate list in %q", spec, s)
	}
	return name, rates, nil
}
