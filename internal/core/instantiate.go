package core

import (
	"fmt"

	"repro/internal/csdf"
	"repro/internal/symb"
)

// Lowering records the correspondence between a TPDF graph and the concrete
// CSDF graph a lowering produced (Instantiate, or a Program's).
type Lowering struct {
	// ActorOf maps NodeID to the csdf actor index (identity here, kept
	// explicit so callers never assume it).
	ActorOf []int
	// EdgeOf maps EdgeID to the csdf edge index.
	EdgeOf []int
}

// Instantiate evaluates every rate of g under env (parameters missing from
// env use their declared defaults) and returns the fully-connected concrete
// CSDF graph of the §III-A consistency analysis. Modes are not applied:
// every edge is present.
//
// Instantiate is the reference lowering, the first stage of the reference
// stack (Instantiate → csdf RepetitionVector → runner.Run). It shares
// Validate and the parameter range rule with the product lowering — a
// Program bound by Compile + Rebind — and nothing else: rates go through
// the map-based evaluator into a fresh csdf.Graph, so the differential
// pairs (rebind, tiers, epochs, contexts) and bench/'s output check compare
// two independent computations. That is the only reason it exists; product
// code does not call it (CI's "one lowering" step enforces this).
func (g *Graph) Instantiate(env symb.Env) (*csdf.Graph, *Lowering, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	full := g.DefaultEnv()
	for k, v := range env {
		full[k] = v
	}
	for _, p := range g.Params {
		if err := p.checkValue(full[p.Name]); err != nil {
			return nil, nil, err
		}
	}

	cg := csdf.NewGraph()
	low := &Lowering{}
	for _, n := range g.Nodes {
		low.ActorOf = append(low.ActorOf, cg.AddActor(n.Name, n.Exec...))
	}
	for _, e := range g.Edges {
		src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
		prod, err := evalSeq(src.Ports[e.SrcPort].Rates, full)
		if err != nil {
			return nil, nil, fmt.Errorf("core: edge %q production: %v", e.Name, err)
		}
		cons, err := evalSeq(dst.Ports[e.DstPort].Rates, full)
		if err != nil {
			return nil, nil, fmt.Errorf("core: edge %q consumption: %v", e.Name, err)
		}
		ei := cg.ConnectNamed(e.Name, low.ActorOf[e.Src], prod, low.ActorOf[e.Dst], cons, e.Initial)
		low.EdgeOf = append(low.EdgeOf, ei)
	}
	if err := cg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: instantiated graph invalid: %v", err)
	}
	return cg, low, nil
}

func evalSeq(rates []symb.Expr, env symb.Env) ([]int64, error) {
	out := make([]int64, len(rates))
	for i, r := range rates {
		v, err := r.EvalInt(env, 1)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("rate %s evaluates to negative %d", r, v)
		}
		out[i] = v
	}
	return out, nil
}
