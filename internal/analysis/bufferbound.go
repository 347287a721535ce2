package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/symb"
)

// EdgeTraffic returns the symbolic number of tokens transferred over each
// edge during one iteration: r_src · X_src(τ_src), as a function of the
// graph parameters.
func EdgeTraffic(g *core.Graph, sol *Solution) []symb.Expr {
	out := make([]symb.Expr, len(g.Edges))
	for ei, e := range g.Edges {
		out[ei] = sol.R[e.Src].Mul(sol.Prod[ei])
	}
	return out
}

// SymbolicBufferBound derives the per-iteration buffer requirement of the
// graph as a closed-form expression: the sum over the active edges of the
// tokens they carry in one iteration, plus initial tokens on inactive
// edges. For single-appearance pipelines (every actor fires its whole batch
// before the consumer starts, the structure of the paper's Fig. 7) this is
// exactly the minimum buffer size, which is how the paper's Fig. 8 formulas
//
//	TPDF: 3 + β(12N + L)      CSDF: β(17N + L)
//
// arise; the TPDF reproduction test derives both symbolically from the
// graphs. active selects the edges present under the current mode; nil
// means every edge (the CSDF view).
func SymbolicBufferBound(g *core.Graph, sol *Solution, active func(ei int, e *core.Edge) bool) symb.Expr {
	traffic := EdgeTraffic(g, sol)
	total := symb.ZeroExpr()
	for ei := range g.Edges {
		e := g.Edges[ei]
		if active == nil || active(ei, e) {
			total = total.Add(traffic[ei])
		}
		if e.Initial > 0 {
			total = total.Add(symb.IntExpr(e.Initial))
		}
	}
	return total
}

// OFDMActiveEdges returns the edge filter for the Fig. 7 demodulator with
// the given demapping branch selected ("QPSK" or "QAM"): the unchosen
// branch's data edges are absent (§IV-B's removed unused edges).
func OFDMActiveEdges(g *core.Graph, branch string) (func(ei int, e *core.Edge) bool, error) {
	other := "QPSK"
	if branch == "QPSK" {
		other = "QAM"
	} else if branch != "QAM" {
		return nil, fmt.Errorf("analysis: branch %q not QPSK or QAM", branch)
	}
	off, ok := g.NodeByName(other)
	if !ok {
		return nil, fmt.Errorf("analysis: graph has no %s kernel", other)
	}
	return func(ei int, e *core.Edge) bool {
		return e.Src != off && e.Dst != off
	}, nil
}
