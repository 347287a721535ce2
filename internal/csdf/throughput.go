package csdf

import (
	"fmt"
)

// Throughput analysis via maximum cycle ratio (MCR): the classical
// self-timed bound used by SDF tool chains. The firing-level dependence
// graph of one iteration is extended with inter-iteration edges (carrying
// delay 1 per iteration boundary), and the steady-state iteration period of
// unbounded self-timed execution equals the maximum over cycles of
// (total execution time) / (total delay).
//
// The MCR is computed by binary search on λ: a candidate period λ is
// feasible iff the graph with edge weights w = exec(src) − λ·delay has no
// positive cycle (checked with Bellman-Ford). The search narrows to the
// simulator's observable precision.

// ipgEdge is an edge of the inter-iteration precedence graph.
type ipgEdge struct {
	from, to int
	delay    int64 // iteration-boundary crossings (0 = same iteration)
}

// iterationGraph builds firing-level dependence edges including those that
// wrap to later iterations. For edge e = (i -> j), the n-th firing of j in
// iteration m depends on the producer firing that supplies its last token;
// cumulative production over iterations is X(k) + it·X(q_i) + initial.
func (g *Graph) iterationGraph(sol *Solution) ([]ipgEdge, []int64, error) {
	n := len(g.Actors)
	base := make([]int64, n)
	var total int64
	for j := 0; j < n; j++ {
		base[j] = total
		total += sol.Q[j]
	}
	if total > 1<<20 {
		return nil, nil, fmt.Errorf("csdf: iteration graph too large (%d firings)", total)
	}
	id := func(actor int, k int64) int { return int(base[actor] + k) }

	var edges []ipgEdge
	// Serialization of successive firings of one actor, wrapping to the
	// next iteration for the last firing.
	for j := 0; j < n; j++ {
		for k := int64(1); k < sol.Q[j]; k++ {
			edges = append(edges, ipgEdge{id(j, k-1), id(j, k), 0})
		}
		edges = append(edges, ipgEdge{id(j, sol.Q[j]-1), id(j, 0), 1})
	}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if e.Src == e.Dst {
			continue
		}
		q := sol.Q[e.Src]
		prodPerIter := e.CumProd(q)
		for nc := int64(0); nc < sol.Q[e.Dst]; nc++ {
			// In steady state, firing nc of the consumer in iteration t
			// needs cumulative tokens t·prodPerIter + CumCons(nc+1); the
			// producer firing supplying the last of them is the smallest
			// global index m with Initial + F(m+1) >= that, where
			// F(k·q + r) = k·prodPerIter + CumProd(r) extends the
			// cumulative production over iteration boundaries (k may be
			// negative when initial tokens cover several iterations).
			need := e.CumCons(nc+1) - e.Initial
			// Shift into positive territory: need + s·prodPerIter > 0.
			s := int64(0)
			if need <= 0 {
				s = (-need)/prodPerIter + 1
			}
			shifted := need + s*prodPerIter
			// Find the smallest m' >= 0 with F(m'+1) >= shifted; since
			// 0 < shifted <= prodPerIter + s·prodPerIter, m' < (s+1)·q.
			k := (shifted - 1) / prodPerIter // full iterations skipped
			rem := shifted - k*prodPerIter   // in (0, prodPerIter]
			rel := int64(0)
			for e.CumProd(rel+1) < rem {
				rel++
			}
			mPrime := k*q + rel
			// Undo the shift: m = m' − s·q; delay = s − m'/q iterations.
			delay := s - mPrime/q
			if delay < 0 {
				return nil, nil, fmt.Errorf("csdf: internal: negative delay on edge %q", e.Name)
			}
			edges = append(edges, ipgEdge{id(e.Src, mPrime%q), id(e.Dst, nc), delay})
		}
	}
	return edges, base, nil
}

// MaxCycleRatio returns the steady-state iteration period bound of
// unbounded self-timed execution: max over dependence cycles of
// exec-sum / delay-sum. The graph must be consistent and live. The result
// is exact to within tol.
func (g *Graph) MaxCycleRatio(sol *Solution, tol float64) (float64, error) {
	edges, base, err := g.iterationGraph(sol)
	if err != nil {
		return 0, err
	}
	n := len(g.Actors)
	var totalNodes int64
	for j := 0; j < n; j++ {
		totalNodes += sol.Q[j]
	}
	nodeExec := make([]float64, totalNodes)
	for j := 0; j < n; j++ {
		for k := int64(0); k < sol.Q[j]; k++ {
			nodeExec[base[j]+k] = float64(g.Actors[j].ExecAt(k))
		}
	}

	// Feasibility: with weights w = exec(from) − λ·delay, λ is an upper
	// bound on all cycle ratios iff no positive-weight cycle exists.
	feasible := func(lambda float64) bool {
		dist := make([]float64, totalNodes)
		// Bellman-Ford longest-path relaxation; positive cycle detection.
		for it := int64(0); it <= totalNodes; it++ {
			changed := false
			for _, e := range edges {
				w := nodeExec[e.from] - lambda*float64(e.delay)
				if nd := dist[e.from] + w; nd > dist[e.to]+1e-12 {
					dist[e.to] = nd
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		return false
	}

	// Upper bound: total work of one iteration (a cycle's exec-sum cannot
	// exceed it times its delay count's worth... total work is safe since
	// every cycle has delay >= 1 in a live graph).
	var hi float64
	for i := range nodeExec {
		hi += nodeExec[i]
	}
	if hi == 0 {
		return 0, nil
	}
	if !feasible(hi) {
		return 0, fmt.Errorf("csdf: no feasible period — graph not live")
	}
	lo := 0.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// UnfoldPrecedence builds the precedence relation of k consecutive
// iterations, including the cross-iteration dependences the single-period
// canonical graph omits. Scheduling the unfolded graph exposes pipelining
// across period boundaries: the makespan per iteration approaches the
// maximum cycle ratio as k grows.
func (g *Graph) UnfoldPrecedence(sol *Solution, k int64) (*Precedence, error) {
	if k < 1 {
		return nil, fmt.Errorf("csdf: unfold factor must be >= 1")
	}
	edges, base, err := g.iterationGraph(sol)
	if err != nil {
		return nil, err
	}
	var perIter int64
	for _, q := range sol.Q {
		perIter += q
	}
	if perIter*k > 1<<20 {
		return nil, fmt.Errorf("csdf: unfolded graph too large (%d firings)", perIter*k)
	}
	firings := make([]Firing, perIter*k)
	deps := make([][]int, perIter*k)
	for it := int64(0); it < k; it++ {
		for j := range g.Actors {
			for f := int64(0); f < sol.Q[j]; f++ {
				id := it*perIter + base[j] + f
				firings[id] = Firing{Actor: j, K: it*sol.Q[j] + f}
			}
		}
	}
	for _, e := range edges {
		for it := int64(0); it < k; it++ {
			// Producer in iteration it feeds the consumer in it+delay.
			target := it + e.delay
			if target >= k {
				continue
			}
			deps[target*perIter+int64(e.to)] = append(
				deps[target*perIter+int64(e.to)], int(it*perIter+int64(e.from)))
		}
	}
	return NewPrecedence(firings, deps), nil
}
