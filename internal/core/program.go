package core

import (
	"fmt"

	"repro/internal/csdf"
	"repro/internal/symb"
)

// Skeleton is the immutable half of the compile-once form of a parametric
// TPDF graph: the validated source graph, the fixed parameter index, the
// declared defaults and every rate expression lowered to a compiled
// coefficient/exponent table. A Skeleton holds no valuation and no concrete
// rate tables — after CompileSkeleton it is never written again, so any
// number of goroutines may share one Skeleton and stamp Programs from it
// concurrently (NewProgram). This is what lets a server host thousands of
// sessions of the same graph for the price of a single compilation: the
// expensive work (validation, symbolic lowering) lives here, the cheap
// per-engine mutable state (rate tables, repetition vector, solver scratch)
// lives in the Program each session stamps for itself.
type Skeleton struct {
	src      *Graph
	pi       *symb.ParamIndex
	defaults []int64 // per index slot

	prodC [][]*symb.CompiledExpr // per edge, per phase
	consC [][]*symb.CompiledExpr

	// actorOf/edgeOf are the structural lowering maps, identical for every
	// stamped Program and shared read-only by their Lowerings; ctlActor
	// flags, per csdf actor index, the control actors.
	actorOf  []int
	edgeOf   []int
	ctlActor []bool
}

// Program is the per-holder mutable half: the concrete CSDF rate tables,
// the current valuation, the repetition vector and the solver scratch.
// Rebind re-evaluates the whole graph at a new valuation by overwriting
// the existing rate tables and repetition vector in place — no maps, no
// fresh csdf.Graph, no allocations on the warm path.
//
// A bound Program is the product stack's one answer to "what is this graph
// at this valuation": Simulate, Schedule, GenerateCode, Stream, the sweeps,
// the liveness probes and the experiment drivers all read rates, the
// repetition vector and the canonical period from one (Bind for a single
// valuation, Compile + Rebind when the valuation moves). Graph.Instantiate
// computes the same answer independently and is kept only as the oracle
// the differential tests compare a Program against. A Program is not safe
// for concurrent mutation: Rebind must never run while anything (a
// Simulator, another goroutine) is reading the program's concrete graph or
// solution. Sweep drivers give each worker its own Program; a server gives
// each session its own Program stamped from the shared Skeleton
// (single-writer per session, compile-once per graph).
type Program struct {
	sk  *Skeleton
	cg  *csdf.Graph
	low *Lowering

	vals []int64 // current valuation, per index slot

	// Repetition-vector solver scratch, preallocated at stamp time and
	// reused by every Rebind (its structural half — phase counts,
	// adjacency — does not change under rebinding).
	scratch *csdf.SolverScratch
	sol     csdf.Solution

	bound bool
}

// CompileSkeleton validates the graph and lowers every rate expression into
// an immutable, freely shareable compile product. It performs all the work
// of Compile except the per-holder state: stamp that with NewProgram, as
// many times as there are concurrent holders.
func CompileSkeleton(g *Graph) (*Skeleton, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// The csdf-level validation Instantiate runs on its result also rejects
	// negative execution times — the one rule core.Validate leaves to the
	// lowering. Check it here so Compile-based paths refuse exactly the
	// graphs Instantiate-based paths refuse.
	for _, n := range g.Nodes {
		for _, t := range n.Exec {
			if t < 0 {
				return nil, fmt.Errorf("core: instantiated graph invalid: csdf: actor %q has negative execution time", n.Name)
			}
		}
	}

	// Parameter index: the declared parameters in declaration order.
	// Validate has already rejected any rate referencing an undeclared
	// name, so the declared set covers every expression we compile.
	names := make([]string, 0, len(g.Params))
	for _, p := range g.Params {
		names = append(names, p.Name)
	}
	pi := symb.NewParamIndex(names)

	sk := &Skeleton{
		src:      g,
		pi:       pi,
		defaults: make([]int64, pi.Len()),
	}
	for i := range sk.defaults {
		sk.defaults[i] = 1
	}
	for _, par := range g.Params {
		slot, _ := pi.Index(par.Name)
		d := par.Default
		if d == 0 {
			d = 1
		}
		sk.defaults[slot] = d
	}

	sk.prodC = make([][]*symb.CompiledExpr, len(g.Edges))
	sk.consC = make([][]*symb.CompiledExpr, len(g.Edges))
	sk.actorOf = make([]int, len(g.Nodes))
	sk.edgeOf = make([]int, len(g.Edges))
	sk.ctlActor = make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		// The lowering is index-preserving (AddActor below returns indices
		// in insertion order); keep the map explicit so no caller assumes
		// it.
		sk.actorOf[i] = i
		sk.ctlActor[i] = n.Kind == KindControl
	}
	for ei, e := range g.Edges {
		src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
		pc, err := compileSeq(src.Ports[e.SrcPort].Rates, pi)
		if err != nil {
			return nil, fmt.Errorf("core: edge %q production: %v", e.Name, err)
		}
		cc, err := compileSeq(dst.Ports[e.DstPort].Rates, pi)
		if err != nil {
			return nil, fmt.Errorf("core: edge %q consumption: %v", e.Name, err)
		}
		sk.prodC[ei], sk.consC[ei] = pc, cc
		sk.edgeOf[ei] = ei
	}
	return sk, nil
}

// Source returns the TPDF graph the skeleton was compiled from.
func (sk *Skeleton) Source() *Graph { return sk.src }

// NewProgram stamps a fresh per-holder Program from the shared skeleton:
// a concrete CSDF graph with rate slices of the right shape (values are
// placeholders until the first Rebind), preallocated solver scratch and
// solution. The stamp is pure allocation — no validation, no expression
// compilation — so it is cheap enough to run per session/connection, and
// it never writes the skeleton, so concurrent stamps need no locking.
func (sk *Skeleton) NewProgram() *Program {
	g := sk.src
	cg := csdf.NewGraph()
	low := &Lowering{ActorOf: sk.actorOf, EdgeOf: sk.edgeOf}
	for _, n := range g.Nodes {
		cg.AddActor(n.Name, n.Exec...)
	}
	for ei, e := range g.Edges {
		cg.ConnectNamed(e.Name, sk.actorOf[e.Src],
			make([]int64, len(sk.prodC[ei])), sk.actorOf[e.Dst],
			make([]int64, len(sk.consC[ei])), e.Initial)
	}

	n := len(cg.Actors)
	return &Program{
		sk:      sk,
		cg:      cg,
		low:     low,
		vals:    make([]int64, sk.pi.Len()),
		scratch: cg.NewSolverScratch(),
		sol:     csdf.Solution{R: make([]int64, n), Q: make([]int64, n)},
	}
}

// Compile validates the graph, builds the reusable concrete skeleton and
// lowers every rate expression. The returned program is unbound: call
// Rebind before reading the concrete graph or solution. Callers that will
// hold many Programs of the same graph (a session fleet) should
// CompileSkeleton once and stamp with NewProgram instead.
func Compile(g *Graph) (*Program, error) {
	sk, err := CompileSkeleton(g)
	if err != nil {
		return nil, err
	}
	return sk.NewProgram(), nil
}

// Bind compiles the graph and binds it at env in one call: the lowering of
// every product path that needs one valuation (parameters missing from env
// keep their declared defaults).
func Bind(g *Graph, env symb.Env) (*Program, error) {
	p, err := Compile(g)
	if err != nil {
		return nil, err
	}
	if err := p.Rebind(env); err != nil {
		return nil, err
	}
	return p, nil
}

func compileSeq(rates []symb.Expr, pi *symb.ParamIndex) ([]*symb.CompiledExpr, error) {
	out := make([]*symb.CompiledExpr, len(rates))
	for i, r := range rates {
		c, err := r.Compile(pi)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// Rebind re-evaluates the program at the valuation (parameters missing from
// env keep their declared defaults): rate tables are overwritten in place —
// the backing arrays never move, so simulators aliasing them observe the
// new rates — and the repetition vector is re-solved into the program's
// reusable Solution. After the first successful Rebind the warm path
// performs zero heap allocations.
//
// A failed Rebind leaves the program unbound (the rate tables may hold a
// mix of the old and the rejected valuation); rebind again with a valid
// valuation before reading Concrete or Solution.
func (p *Program) Rebind(env symb.Env) error {
	p.bound = false
	copy(p.vals, p.sk.defaults)
	for name, v := range env {
		if slot, ok := p.sk.pi.Index(name); ok {
			p.vals[slot] = v
		}
	}
	for _, par := range p.sk.src.Params {
		slot, _ := p.sk.pi.Index(par.Name)
		if err := par.checkValue(p.vals[slot]); err != nil {
			return err
		}
	}

	src := p.sk.src
	for ei := range p.cg.Edges {
		ce, e := &p.cg.Edges[ei], src.Edges[ei]
		if err := p.rebindSeq(p.sk.prodC[ei], src.Nodes[e.Src].Ports[e.SrcPort].Rates, ce.Prod, e.Name, "production"); err != nil {
			return err
		}
		if err := p.rebindSeq(p.sk.consC[ei], src.Nodes[e.Dst].Ports[e.DstPort].Rates, ce.Cons, e.Name, "consumption"); err != nil {
			return err
		}
	}
	if err := p.cg.SolveInto(p.scratch, &p.sol); err != nil {
		return err
	}
	p.bound = true
	return nil
}

// rebindSeq evaluates one compiled rate sequence into its existing slice,
// enforcing the same validity rules Instantiate and csdf.Validate apply:
// integer rates, no negative rates, at least one positive rate per
// sequence. rates is the symbolic sequence compiled was lowered from; a
// refusal names the edge and the source rate, as Instantiate's does.
func (p *Program) rebindSeq(compiled []*symb.CompiledExpr, rates []symb.Expr, dst []int64, edge, kind string) error {
	pos := false
	for k, c := range compiled {
		if err := c.EvalIntInto(&dst[k], p.vals); err != nil {
			return fmt.Errorf("core: edge %q %s: rate %s: %v", edge, kind, rates[k], err)
		}
		if dst[k] < 0 {
			return fmt.Errorf("core: edge %q %s: rate %s evaluates to negative %d", edge, kind, rates[k], dst[k])
		}
		if dst[k] > 0 {
			pos = true
		}
	}
	if !pos {
		return fmt.Errorf("core: edge %q has all-zero %s sequence", edge, kind)
	}
	return nil
}

// Bound reports whether the program has a valuation (a successful Rebind).
func (p *Program) Bound() bool { return p.bound }

// Source returns the TPDF graph the program was compiled from.
func (p *Program) Source() *Graph { return p.sk.src }

// Skeleton returns the immutable compile product the program was stamped
// from. Programs stamped from the same skeleton share it by pointer, which
// is what program caches key on to prove compile-once sharing.
func (p *Program) Skeleton() *Skeleton { return p.sk }

// Concrete returns the program's concrete CSDF graph. Its rate slices are
// overwritten by Rebind; callers that need a snapshot must copy.
func (p *Program) Concrete() *csdf.Graph { return p.cg }

// Lowering returns the TPDF→CSDF correspondence.
func (p *Program) Lowering() *Lowering { return p.low }

// Solution returns the repetition vector at the current valuation. The
// slices are reused by Rebind; callers that keep them across rebinds must
// copy.
func (p *Program) Solution() *csdf.Solution { return &p.sol }

// ControlActors flags, per csdf actor index, the control actors of the
// source graph: the set the §III-D control-priority rule schedules first.
// The slice is shared by every Program of the skeleton; do not mutate.
func (p *Program) ControlActors() []bool { return p.sk.ctlActor }

// CanonicalPeriod builds the canonical period of the bound program (§III-D):
// the firing-level precedence graph of one iteration at the current
// valuation, firings of one actor serialized. List schedulers pair it with
// ControlActors.
func (p *Program) CanonicalPeriod() (*csdf.Precedence, error) {
	if !p.bound {
		return nil, fmt.Errorf("core: program is unbound; call Rebind before building its canonical period")
	}
	return p.cg.BuildPrecedence(&p.sol, true)
}
