package csdf

import (
	"fmt"
	"strings"
)

// Schedule is a periodic admissible sequential schedule (PASS): a firing
// order for one iteration together with the buffer occupancy it induces.
type Schedule struct {
	// Order lists actor indices in firing order (len == sum of Q).
	Order []int
	// MaxTokens is the per-edge high-water mark reached while executing the
	// schedule starting from the initial channel state.
	MaxTokens []int64
	// Final is the per-edge token count after the full iteration; for a
	// consistent live graph it equals the initial state.
	Final []int64
}

// TotalBuffer returns the sum of per-edge high-water marks: the total buffer
// memory needed to run the schedule with one buffer per channel.
func (s *Schedule) TotalBuffer() int64 {
	var t int64
	for _, v := range s.MaxTokens {
		t += v
	}
	return t
}

// String renders the schedule in the paper's run-length notation,
// e.g. "(a3)^2 (a1)^3 (a2)^2".
func (s *Schedule) Format(g *Graph) string {
	var b strings.Builder
	i := 0
	for i < len(s.Order) {
		j := i
		for j < len(s.Order) && s.Order[j] == s.Order[i] {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if j-i == 1 {
			b.WriteString(g.Actors[s.Order[i]].Name)
		} else {
			fmt.Fprintf(&b, "(%s)^%d", g.Actors[s.Order[i]].Name, j-i)
		}
		i = j
	}
	return b.String()
}

// SchedulePolicy selects the firing heuristic used to build a PASS.
type SchedulePolicy int

const (
	// Eager fires, at each step, the lowest-indexed enabled actor that has
	// remaining firings (ASAP; classic SDF scheduling order).
	Eager SchedulePolicy = iota
	// Demand fires the actor closest to the sink first (reverse topological
	// preference), which keeps buffers small on pipeline graphs: a consumer
	// drains tokens as soon as they become available.
	Demand
	// RunLength exhausts the chosen actor (fires it while it stays enabled)
	// before rescanning, producing flattened single-appearance-style
	// schedules such as the paper's (a3)^2 (a1)^3 (a2)^2 for Fig. 1.
	RunLength
)

// BuildSchedule constructs a PASS for one iteration under the policy.
// It returns an error if the graph deadlocks (is not live).
func (g *Graph) BuildSchedule(sol *Solution, policy SchedulePolicy) (*Schedule, error) {
	n := len(g.Actors)
	tokens := make([]int64, len(g.Edges))
	for i := range g.Edges {
		tokens[i] = g.Edges[i].Initial
	}
	maxTok := append([]int64(nil), tokens...)
	fired := make([]int64, n)

	var total int64
	for _, q := range sol.Q {
		total += q
	}
	// Allocated once, but capped: a deadlocking graph with a huge repetition
	// vector still fails before it allocates.
	order := make([]int, 0, min(max(total, 0), 1<<16))

	// One backing array for the three int tables: prio (position -> actor
	// index, tried in order), deg and back (the edge index below).
	ints := make([]int, 3*n+2*len(g.Edges))
	prio, deg, back := ints[:n], ints[n:3*n], ints[3*n:]
	// Priority order: for Demand, actors later in topological order of the
	// acyclic condensation fire first.
	for i := range prio {
		prio[i] = i
	}
	if policy == Demand {
		depth := g.sinkDistance()
		// Sort ascending by distance-to-sink: consumers (distance 0) first.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && depth[prio[j]] < depth[prio[j-1]]; j-- {
				prio[j], prio[j-1] = prio[j-1], prio[j]
			}
		}
	}

	// ins[a] / outs[a] list actor a's input / output edges in edge order,
	// indexed once per call so a candidate firing walks only its own edges.
	adj := make([][]int, 2*n)
	for ei := range g.Edges {
		deg[g.Edges[ei].Dst]++
		deg[n+g.Edges[ei].Src]++
	}
	for i, d := range deg {
		adj[i], back = back[:0:d], back[d:]
	}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		adj[e.Dst] = append(adj[e.Dst], ei)
		adj[n+e.Src] = append(adj[n+e.Src], ei)
	}
	ins, outs := adj[:n], adj[n:]

	canFire := func(a int) bool {
		if fired[a] >= sol.Q[a] {
			return false
		}
		for _, ei := range ins[a] {
			if tokens[ei] < g.Edges[ei].ConsAt(fired[a]) {
				return false
			}
		}
		return true
	}
	fire := func(a int) {
		for _, ei := range ins[a] {
			tokens[ei] -= g.Edges[ei].ConsAt(fired[a])
		}
		for _, ei := range outs[a] {
			tokens[ei] += g.Edges[ei].ProdAt(fired[a])
			if tokens[ei] > maxTok[ei] {
				maxTok[ei] = tokens[ei]
			}
		}
		fired[a]++
		order = append(order, a)
	}

	for int64(len(order)) < total {
		progressed := false
		for _, a := range prio {
			if canFire(a) {
				fire(a)
				if policy == RunLength {
					for canFire(a) {
						fire(a)
					}
				}
				progressed = true
				break
			}
		}
		if !progressed {
			return nil, fmt.Errorf("csdf: deadlock after %d of %d firings (remaining: %s)",
				len(order), total, g.remainingString(sol, fired))
		}
	}
	return &Schedule{Order: order, MaxTokens: maxTok, Final: tokens}, nil
}

func (g *Graph) remainingString(sol *Solution, fired []int64) string {
	var parts []string
	for j := range g.Actors {
		if fired[j] < sol.Q[j] {
			parts = append(parts, fmt.Sprintf("%s:%d/%d", g.Actors[j].Name, fired[j], sol.Q[j]))
		}
	}
	return strings.Join(parts, " ")
}

// sinkDistance returns, per actor, the length of the longest edge path to a
// sink, ignoring cycles (actors on cycles get the max over exits; actors on
// pure cycles get 0).
func (g *Graph) sinkDistance() []int {
	n := len(g.Actors)
	out := make([][]int, n)
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if e.Src != e.Dst {
			out[e.Src] = append(out[e.Src], e.Dst)
		}
	}
	depth := make([]int, n)
	state := make([]int8, n) // 0 unvisited, 1 in progress, 2 done
	var dfs func(u int) int
	dfs = func(u int) int {
		switch state[u] {
		case 1:
			return 0 // cycle: cut off
		case 2:
			return depth[u]
		}
		state[u] = 1
		best := 0
		for _, v := range out[u] {
			if d := dfs(v) + 1; d > best {
				best = d
			}
		}
		state[u] = 2
		depth[u] = best
		return best
	}
	for u := 0; u < n; u++ {
		dfs(u)
	}
	return depth
}

// ReplaySchedule executes an explicit firing order from the initial state,
// returning per-edge high-water marks and verifying admissibility (no
// negative buffer). Used to check externally-constructed schedules.
func (g *Graph) ReplaySchedule(order []int) (maxTok []int64, err error) {
	tokens := make([]int64, len(g.Edges))
	for i := range g.Edges {
		tokens[i] = g.Edges[i].Initial
	}
	maxTok = append([]int64(nil), tokens...)
	fired := make([]int64, len(g.Actors))
	for step, a := range order {
		if a < 0 || a >= len(g.Actors) {
			return nil, fmt.Errorf("csdf: schedule step %d: actor %d out of range", step, a)
		}
		for ei := range g.Edges {
			e := &g.Edges[ei]
			if e.Dst == a {
				tokens[ei] -= e.ConsAt(fired[a])
				if tokens[ei] < 0 {
					return nil, fmt.Errorf("csdf: schedule step %d: edge %q underflows firing %s",
						step, e.Name, g.Actors[a].Name)
				}
			}
		}
		for ei := range g.Edges {
			e := &g.Edges[ei]
			if e.Src == a {
				tokens[ei] += e.ProdAt(fired[a])
				if tokens[ei] > maxTok[ei] {
					maxTok[ei] = tokens[ei]
				}
			}
		}
		fired[a]++
	}
	return maxTok, nil
}

// ReturnsToInitial reports whether executing one iteration restores every
// channel to its initial token count (Theorem 2 precondition).
func (g *Graph) ReturnsToInitial(sol *Solution, policy SchedulePolicy) (bool, error) {
	s, err := g.BuildSchedule(sol, policy)
	if err != nil {
		return false, err
	}
	for ei := range g.Edges {
		if s.Final[ei] != g.Edges[ei].Initial {
			return false, nil
		}
	}
	return true, nil
}
