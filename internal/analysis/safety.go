package analysis

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/symb"
)

// SafetyResult records the rate-safety check of one control actor.
type SafetyResult struct {
	Ctrl  core.NodeID
	Area  *Area
	Local *Local
	Err   error // nil when the control actor is rate safe
}

// RateSafety checks Definition 5 for every control actor: during one local
// iteration of its area, the control actor fires exactly once, i.e. for each
// actor a ∈ prec(g) ∪ succ(g) connected to g by edge e,
//
//	X_g(1) = Y_a(qL_a)   if g produces on e
//	Y_g(1) = X_a(qL_a)   if g consumes from e
//
// The cumulative rates over the (possibly symbolic) local counts are
// evaluated symbolically; sequences that cannot be summed symbolically
// (parametric count not a multiple of the sequence length) are reported as
// unverifiable, which is conservative.
func RateSafety(g *core.Graph, sol *Solution) []SafetyResult {
	var out []SafetyResult
	for id := range g.Nodes {
		if g.Nodes[id].Kind != core.KindControl {
			continue
		}
		ctrl := core.NodeID(id)
		area := ControlArea(g, ctrl)
		res := SafetyResult{Ctrl: ctrl, Area: area}
		if len(area.Members) == 0 {
			res.Err = fmt.Errorf("analysis: control actor %q has an empty area", g.Nodes[id].Name)
			out = append(out, res)
			continue
		}
		local, err := LocalSolution(sol, area.Members)
		if err != nil {
			res.Err = err
			out = append(out, res)
			continue
		}
		res.Local = local
		res.Err = checkCtrlSafety(g, sol, ctrl, local)
		out = append(out, res)
	}
	return out
}

func checkCtrlSafety(g *core.Graph, sol *Solution, ctrl core.NodeID, local *Local) error {
	name := g.Nodes[ctrl].Name
	for _, e := range g.Edges {
		switch {
		case e.Src == ctrl && e.Dst != ctrl:
			// g produces on e: X_g(1) must equal Y_dst(qL_dst).
			xg1 := g.Nodes[ctrl].Ports[e.SrcPort].RateAt(0)
			ql, ok := local.QL[e.Dst]
			if !ok {
				return fmt.Errorf("analysis: %q's successor %q outside its area", name, g.Nodes[e.Dst].Name)
			}
			ya, err := cumSymbolic(g.Nodes[e.Dst].Ports[e.DstPort].Rates, ql)
			if err != nil {
				return fmt.Errorf("analysis: edge %q: %v", e.Name, err)
			}
			if !xg1.Equal(ya) {
				return fmt.Errorf("analysis: rate-unsafe control %q on edge %q: X_%s(1)=%s ≠ Y_%s(%s)=%s",
					name, e.Name, name, xg1, g.Nodes[e.Dst].Name, ql, ya)
			}
		case e.Dst == ctrl && e.Src != ctrl:
			// g consumes from e: Y_g(1) must equal X_src(qL_src).
			yg1 := g.Nodes[ctrl].Ports[e.DstPort].RateAt(0)
			ql, ok := local.QL[e.Src]
			if !ok {
				return fmt.Errorf("analysis: %q's predecessor %q outside its area", name, g.Nodes[e.Src].Name)
			}
			xa, err := cumSymbolic(g.Nodes[e.Src].Ports[e.SrcPort].Rates, ql)
			if err != nil {
				return fmt.Errorf("analysis: edge %q: %v", e.Name, err)
			}
			if !yg1.Equal(xa) {
				return fmt.Errorf("analysis: rate-unsafe control %q on edge %q: Y_%s(1)=%s ≠ X_%s(%s)=%s",
					name, e.Name, name, yg1, g.Nodes[e.Src].Name, ql, xa)
			}
		}
	}
	return nil
}

// cumSymbolic computes the cumulative rate sum of a cyclo-static sequence
// over a symbolic firing count n:
//
//   - concrete n: (n / len)·sum(seq) + sum(seq[:n % len]), so the cost does
//     not depend on n;
//   - uniform sequence (all phases equal r): n·r;
//   - n divisible by the sequence length as a polynomial: (n/len)·sum(seq).
func cumSymbolic(seq []symb.Expr, n symb.Expr) (symb.Expr, error) {
	if cnt, ok := n.Int(); ok {
		if cnt < 0 {
			return symb.Expr{}, fmt.Errorf("negative firing count %d", cnt)
		}
		l := int64(len(seq))
		return symb.SumExprs(seq).ScaleInt(cnt / l).Add(symb.SumExprs(seq[:cnt%l])), nil
	}
	if !slices.ContainsFunc(seq, func(r symb.Expr) bool { return !r.Equal(seq[0]) }) {
		return n.Mul(seq[0]), nil // uniform
	}
	reps := n.Div(symb.IntExpr(int64(len(seq))))
	if _, isPoly := reps.IsPoly(); isPoly {
		return reps.Mul(symb.SumExprs(seq)), nil
	}
	return symb.Expr{}, fmt.Errorf("cannot sum %d-phase sequence over symbolic count %s", len(seq), n)
}
