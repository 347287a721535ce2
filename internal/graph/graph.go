// Package graph provides the directed-multigraph algorithms shared by the
// CSDF and TPDF analyses: strongly connected components (Tarjan), topological
// ordering, condensation and reachability. Nodes are dense integer ids
// assigned by the caller; parallel edges and self-loops are allowed.
package graph

import "fmt"

// Digraph is a directed multigraph over nodes 0..N-1.
type Digraph struct {
	n   int
	adj [][]int // adjacency by node id (targets; duplicates allowed)
}

// New returns a digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Digraph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// AddEdge adds a directed edge u -> v. Parallel edges accumulate.
func (g *Digraph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	g.adj[u] = append(g.adj[u], v)
}

// Succ returns the successor list of u (shared slice; do not mutate).
func (g *Digraph) Succ(u int) []int { return g.adj[u] }

// HasSelfLoop reports whether u has an edge to itself.
func (g *Digraph) HasSelfLoop(u int) bool {
	for _, v := range g.adj[u] {
		if v == u {
			return true
		}
	}
	return false
}

// SCC returns the strongly connected components in reverse topological
// order (Tarjan's invariant: a component is emitted only after all the
// components it can reach). Each component lists its member node ids.
func (g *Digraph) SCC() [][]int {
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack []int
		comps [][]int
		next  int
	)

	// Iterative Tarjan to survive deep graphs without blowing the stack.
	type frame struct {
		v  int
		ei int // next edge index to explore
	}
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		var call []frame
		call = append(call, frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			advanced := false
			for f.ei < len(g.adj[v]) {
				w := g.adj[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comps
}

// TopoSort returns a topological ordering of the nodes, or an error naming a
// node on a cycle if the graph is cyclic.
func (g *Digraph) TopoSort() ([]int, error) {
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			indeg[v]++
		}
	}
	var queue []int
	for u := 0; u < g.n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order := make([]int, 0, g.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != g.n {
		for u := 0; u < g.n; u++ {
			if indeg[u] > 0 {
				return nil, fmt.Errorf("graph: cycle through node %d", u)
			}
		}
	}
	return order, nil
}

// IsDAG reports whether the graph has no directed cycle.
func (g *Digraph) IsDAG() bool {
	_, err := g.TopoSort()
	return err == nil
}

// Condensation contracts each SCC to a single node and returns the resulting
// DAG together with the mapping node -> component index. Component indices
// follow the SCC() order (reverse topological).
type Condensation struct {
	DAG   *Digraph
	Comp  []int   // node id -> component index
	Comps [][]int // component index -> member node ids
}

// Condense computes the condensation of g.
func (g *Digraph) Condense() Condensation {
	comps := g.SCC()
	comp := make([]int, g.n)
	for ci, members := range comps {
		for _, v := range members {
			comp[v] = ci
		}
	}
	dag := New(len(comps))
	seen := map[[2]int]bool{}
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			cu, cv := comp[u], comp[v]
			if cu == cv {
				continue
			}
			k := [2]int{cu, cv}
			if !seen[k] {
				seen[k] = true
				dag.AddEdge(cu, cv)
			}
		}
	}
	return Condensation{DAG: dag, Comp: comp, Comps: comps}
}

// Reachable returns the set of nodes reachable from start (including start).
func (g *Digraph) Reachable(start int) map[int]bool {
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}
