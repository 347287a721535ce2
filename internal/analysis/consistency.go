// Package analysis implements the TPDF static analyses of §III:
//
//   - rate consistency (§III-A): the balance equations are solved
//     symbolically over the integer parameters, for the fully-connected
//     graph (ignoring mode-dependent configurations), yielding the
//     parametric repetition vector;
//   - boundedness (§III-B): control areas (Definition 3), local solutions
//     (Definition 4) and rate safety (Definition 5) establish Theorem 2;
//   - liveness (§III-C): cycles are clustered into single actors and checked
//     through local schedules (including the late schedule of Fig. 4b).
//
// Analyze runs the complete chain and produces a Report.
package analysis

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/rat"
	"repro/internal/symb"
)

// Solution is the symbolic consistency result.
type Solution struct {
	Graph *core.Graph
	// Tau is the phase count per node (concrete: sequence lengths are
	// structural, not parametric).
	Tau []int64
	// R is the normalized minimal symbolic solution of the balance
	// equations: cycles per iteration, one entry per node.
	R []symb.Expr
	// Q is the symbolic repetition vector: Q[j] = Tau[j] * R[j] (Theorem 1).
	Q []symb.Expr
	// Prod and Cons are the per-edge cycle rates: the tokens edge ei's
	// source port produces, and its destination port consumes, during one
	// full cycle (Tau firings) of their nodes. Computed once by Consistency
	// and read by its verification pass and by EdgeTraffic.
	Prod, Cons []symb.Expr
}

// Tau computes the phase count of node j: the LCM of the rate-sequence
// lengths over its ports and its execution-time sequence.
func nodeTau(g *core.Graph, j core.NodeID) int64 {
	tau := int64(1)
	merge := func(l int) {
		if l == 0 {
			return
		}
		if v, ok := rat.LCM64(tau, int64(l)); ok {
			tau = v
		}
	}
	merge(len(g.Nodes[j].Exec))
	for _, p := range g.Nodes[j].Ports {
		merge(len(p.Rates))
	}
	return tau
}

// cycleRate returns the symbolic token count transferred through the port
// during one full cycle (tau firings) of its node.
func cycleRate(p *core.Port, tau int64) symb.Expr {
	sum := symb.SumExprs(p.Rates)
	reps := tau / int64(len(p.Rates))
	return sum.ScaleInt(reps)
}

// Consistency checks rate consistency (§III-A) and returns the normalized
// symbolic repetition vector. The system of balance equations must have a
// non-trivial solution for all parameter values; the solution is found by
// spanning-tree propagation with exact rational-function arithmetic and then
// verified on every edge, so inconsistency cannot hide behind normalization.
func Consistency(g *core.Graph) (_ *Solution, err error) {
	defer symb.CatchOverflow(&err)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Nodes)
	sol := &Solution{
		Graph: g,
		Tau:   make([]int64, n),
		Prod:  make([]symb.Expr, len(g.Edges)),
		Cons:  make([]symb.Expr, len(g.Edges)),
	}
	for j := 0; j < n; j++ {
		sol.Tau[j] = nodeTau(g, core.NodeID(j))
	}
	for ei, e := range g.Edges {
		sol.Prod[ei] = cycleRate(&g.Nodes[e.Src].Ports[e.SrcPort], sol.Tau[e.Src])
		sol.Cons[ei] = cycleRate(&g.Nodes[e.Dst].Ports[e.DstPort], sol.Tau[e.Dst])
		if sol.Prod[ei].IsZero() || sol.Cons[ei].IsZero() {
			return nil, fmt.Errorf("analysis: edge %q has zero cycle rate", e.Name)
		}
	}

	ratios := make([]symb.Expr, n)
	assigned := make([]bool, n)
	adj := make([][]int, n)
	for ei, e := range g.Edges {
		adj[e.Src] = append(adj[e.Src], ei)
		if e.Dst != e.Src {
			adj[e.Dst] = append(adj[e.Dst], ei)
		}
	}

	for root := 0; root < n; root++ {
		if assigned[root] {
			continue
		}
		ratios[root] = symb.OneExpr()
		assigned[root] = true
		stack := []int{root}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range adj[u] {
				e := g.Edges[ei]
				other, from, to := int(e.Dst), sol.Prod[ei], sol.Cons[ei]
				if u != int(e.Src) {
					other, from, to = int(e.Src), to, from
				}
				if !assigned[other] {
					ratios[other] = ratios[u].Mul(from).Div(to)
					assigned[other] = true
					stack = append(stack, other)
				}
			}
		}
	}

	// Verify every edge symbolically: r_src·X_src(τ) == r_dst·Y_dst(τ) must
	// hold as rational functions, i.e. for every parameter value.
	for ei, e := range g.Edges {
		prod, cons := sol.Prod[ei], sol.Cons[ei]
		if !ratios[e.Src].Mul(prod).Equal(ratios[e.Dst].Mul(cons)) {
			return nil, fmt.Errorf(
				"analysis: rate-inconsistent at edge %q: %s·%s ≠ %s·%s (as functions of %s)",
				e.Name, ratios[e.Src], prod, ratios[e.Dst], cons,
				strings.Join(g.ParamNames(), ","))
		}
	}

	norm, err := symb.NormalizeVector(ratios)
	if err != nil {
		return nil, fmt.Errorf("analysis: normalizing solution: %v", err)
	}
	sol.R = norm
	sol.Q = make([]symb.Expr, n)
	for j := range norm {
		sol.Q[j] = norm[j].ScaleInt(sol.Tau[j])
	}
	return sol, nil
}

// QString renders the symbolic repetition vector, e.g. "[2, 2*p, p, ...]".
func (s *Solution) QString() string {
	parts := make([]string, len(s.Q))
	for j, q := range s.Q {
		parts[j] = q.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// ScheduleString renders a flat symbolic schedule in the paper's notation
// ("A^2 B^2p C^p ..."), using a topological order of the condensed graph so
// producers precede consumers. Nodes inside a cycle are emitted in index
// order within their cluster.
func (s *Solution) ScheduleString() string {
	g := s.Graph
	cond := dataDigraph(g).Condense()
	// cond.Comps is in reverse topological order; walk it backwards.
	var parts []string
	for ci := len(cond.Comps) - 1; ci >= 0; ci-- {
		members := slices.Clone(cond.Comps[ci])
		slices.Sort(members)
		for _, j := range members {
			q := s.Q[j]
			if q.IsOne() {
				parts = append(parts, g.Nodes[j].Name)
			} else {
				parts = append(parts, fmt.Sprintf("%s^%s", g.Nodes[j].Name, compact(q)))
			}
		}
	}
	return strings.Join(parts, " ")
}

func compact(e symb.Expr) string {
	s := e.String()
	s = strings.ReplaceAll(s, "*", "")
	if strings.ContainsAny(s, " +-/") {
		return "(" + s + ")"
	}
	return s
}

// EvalQ evaluates the symbolic repetition vector under env, returning
// concrete counts (entries must be positive integers).
func (s *Solution) EvalQ(env symb.Env) ([]int64, error) {
	out := make([]int64, len(s.Q))
	for j, q := range s.Q {
		v, err := q.EvalInt(env, 1)
		if err != nil {
			return nil, fmt.Errorf("analysis: q[%s]: %v", s.Graph.Nodes[j].Name, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("analysis: q[%s] = %d not positive", s.Graph.Nodes[j].Name, v)
		}
		out[j] = v
	}
	return out, nil
}
