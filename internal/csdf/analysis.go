package csdf

import (
	"fmt"

	"repro/internal/rat"
)

// Solution holds the consistency analysis result of a CSDF graph.
type Solution struct {
	// R is the minimal positive integer solution of the balance equations
	// Γ·r = 0 (one entry per actor): the number of full cycles per
	// iteration.
	R []int64
	// Q is the repetition vector q = P·r (Theorem 1): firings per iteration.
	Q []int64
}

// RepetitionVector solves the balance equations and returns the minimal
// solution. It returns an error if the graph is rate-inconsistent or has an
// actor not involved in any edge with a positive rate (unconstrained).
//
// Disconnected graphs are handled per weakly-connected component; each
// component is normalized independently, matching the standard treatment.
func (g *Graph) RepetitionVector() (*Solution, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Actors)
	if n == 0 {
		return &Solution{}, nil
	}
	sol := &Solution{R: make([]int64, n), Q: make([]int64, n)}
	if err := g.SolveInto(g.NewSolverScratch(), sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolverScratch holds every piece of state a repetition-vector solve needs,
// split into a structural half fixed by the graph's shape (phase counts,
// adjacency) and a rate-dependent half recomputed per solve. Callers that
// re-solve one graph whose rate *values* change in place — the compile-once
// parameter programs — allocate it once and pass it to SolveInto on every
// rebind, which is then allocation-free.
type SolverScratch struct {
	tau                  []int64 // per actor, from rate-sequence lengths only
	adj                  [][]int // actor -> incident edge indices (undirected)
	cycleProd, cycleCons []int64 // per edge, recomputed by SolveInto
	ratios               []rat.Rat
	assigned             []bool
	stack                []int
}

// NewSolverScratch precomputes the structural half of a solve: phase
// counts and the undirected adjacency used for spanning-tree propagation.
// Both depend only on connectivity and rate-sequence lengths, so one
// scratch stays valid while rate values are overwritten in place.
func (g *Graph) NewSolverScratch() *SolverScratch {
	n := len(g.Actors)
	sc := &SolverScratch{
		tau:       make([]int64, n),
		adj:       make([][]int, n),
		cycleProd: make([]int64, len(g.Edges)),
		cycleCons: make([]int64, len(g.Edges)),
		ratios:    make([]rat.Rat, n),
		assigned:  make([]bool, n),
		stack:     make([]int, 0, n),
	}
	for j := 0; j < n; j++ {
		sc.tau[j] = g.Phases(j)
	}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		sc.adj[e.Src] = append(sc.adj[e.Src], ei)
		if e.Dst != e.Src {
			sc.adj[e.Dst] = append(sc.adj[e.Dst], ei)
		}
	}
	return sc
}

// SolveInto solves the balance equations from the graph's current rate
// tables into sol (whose R and Q must be sized to the actor count). It
// assumes the graph is structurally valid — RepetitionVector validates
// before calling it; the parameter programs validate at compile and
// rebind time — and performs no heap allocations.
func (g *Graph) SolveInto(sc *SolverScratch, sol *Solution) error {
	n := len(g.Actors)
	if n == 0 {
		return nil
	}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if len(e.Prod) == 0 || len(e.Cons) == 0 {
			// Validate rejects this; guard so direct misuse of SolveInto
			// surfaces the classic diagnostic instead of a divide-by-zero.
			return fmt.Errorf("csdf: edge %q has zero cycle rate", e.Name)
		}
		sc.cycleProd[ei] = sum64(e.Prod) * (sc.tau[e.Src] / int64(len(e.Prod)))
		sc.cycleCons[ei] = sum64(e.Cons) * (sc.tau[e.Dst] / int64(len(e.Cons)))
	}
	for j := 0; j < n; j++ {
		sc.ratios[j] = rat.Zero // r_j as rationals; zero = unassigned
		sc.assigned[j] = false
	}
	stack := sc.stack[:0]
	for root := 0; root < n; root++ {
		if sc.assigned[root] {
			continue
		}
		sc.ratios[root] = rat.One
		sc.assigned[root] = true
		stack = append(stack, root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range sc.adj[u] {
				e := &g.Edges[ei]
				prod := sc.cycleProd[ei]
				cons := sc.cycleCons[ei]
				if prod == 0 || cons == 0 {
					return fmt.Errorf("csdf: edge %q has zero cycle rate", e.Name)
				}
				// r_src * prod == r_dst * cons
				var other int
				var val rat.Rat
				var err error
				switch u {
				case e.Src:
					other = e.Dst
					val, err = sc.ratios[u].Mul(rat.New(prod, cons))
				default: // u == e.Dst
					other = e.Src
					val, err = sc.ratios[u].Mul(rat.New(cons, prod))
				}
				if err != nil {
					return fmt.Errorf("csdf: balance propagation overflow on edge %q: %v", e.Name, err)
				}
				if !sc.assigned[other] {
					sc.ratios[other] = val
					sc.assigned[other] = true
					stack = append(stack, other)
				}
			}
		}
	}
	sc.stack = stack[:0]

	// Verify every edge (covers non-tree edges and self-loops).
	for ei := range g.Edges {
		e := &g.Edges[ei]
		lhs, err := sc.ratios[e.Src].Mul(rat.FromInt(sc.cycleProd[ei]))
		if err != nil {
			return err
		}
		rhs, err := sc.ratios[e.Dst].Mul(rat.FromInt(sc.cycleCons[ei]))
		if err != nil {
			return err
		}
		if !lhs.Equal(rhs) {
			return fmt.Errorf("csdf: rate-inconsistent at edge %q: %s·%d ≠ %s·%d",
				e.Name, sc.ratios[e.Src], sc.cycleProd[ei], sc.ratios[e.Dst], sc.cycleCons[ei])
		}
	}

	// Normalize r to minimal integers (per component jointly is fine: the
	// global lcm/gcd scaling preserves each component's internal ratios and
	// matches the unique-iteration-vector convention used by the paper).
	l := int64(1)
	for _, r := range sc.ratios {
		var ok bool
		l, ok = rat.LCM64(l, r.Den())
		if !ok {
			return fmt.Errorf("csdf: repetition vector overflow (lcm of denominators)")
		}
	}
	var gAll int64
	for j := 0; j < n; j++ {
		v, err := sc.ratios[j].Mul(rat.FromInt(l))
		if err != nil {
			return err
		}
		iv, _ := v.Int()
		sol.R[j] = iv
		gAll = rat.GCD64(gAll, iv)
	}
	if gAll > 1 {
		for j := 0; j < n; j++ {
			sol.R[j] /= gAll
		}
	}
	for j := 0; j < n; j++ {
		sol.Q[j] = sol.R[j] * sc.tau[j]
	}
	return nil
}
