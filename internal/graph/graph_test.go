package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortComps(comps [][]int) {
	for _, c := range comps {
		sort.Ints(c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
}

func TestSCCSimpleCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	comps := g.SCC()
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("SCC = %v, want one 3-node component", comps)
	}
}

func TestSCCChain(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	comps := g.SCC()
	if len(comps) != 4 {
		t.Fatalf("SCC = %v, want 4 singletons", comps)
	}
	// Reverse topological order: sinks first.
	if comps[0][0] != 3 || comps[3][0] != 0 {
		t.Errorf("SCC order = %v, want reverse topological", comps)
	}
}

func TestSCCTwoCycles(t *testing.T) {
	// 0<->1 -> 2<->3, plus isolated 4
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	comps := g.SCC()
	sortComps(comps)
	want := [][]int{{0, 1}, {2, 3}, {4}}
	if len(comps) != len(want) {
		t.Fatalf("SCC = %v, want %v", comps, want)
	}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("SCC = %v, want %v", comps, want)
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("SCC = %v, want %v", comps, want)
			}
		}
	}
}

func TestSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	if !g.HasSelfLoop(0) || g.HasSelfLoop(1) {
		t.Error("self loop detection wrong")
	}
	comps := g.SCC()
	if len(comps) != 2 {
		t.Errorf("SCC with self loop = %v", comps)
	}
}

func TestTopoSort(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for u := 0; u < 4; u++ {
		for _, v := range g.Succ(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo order violates edge %d->%d: %v", u, v, order)
			}
		}
	}
}

func TestTopoSortCycleError(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, err := g.TopoSort(); err == nil {
		t.Error("expected cycle error")
	}
	if g.IsDAG() {
		t.Error("cycle should not be a DAG")
	}
}

func TestCondense(t *testing.T) {
	// 0<->1 -> 2 -> 3<->4
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 3)
	c := g.Condense()
	if c.DAG.N() != 3 {
		t.Fatalf("condensation has %d nodes, want 3", c.DAG.N())
	}
	if !c.DAG.IsDAG() {
		t.Error("condensation must be a DAG")
	}
	if c.Comp[0] != c.Comp[1] || c.Comp[3] != c.Comp[4] || c.Comp[0] == c.Comp[2] {
		t.Errorf("component mapping wrong: %v", c.Comp)
	}
}

func TestReachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := g.Reachable(0)
	if !r[0] || !r[1] || !r[2] || r[3] {
		t.Errorf("reachable from 0 = %v", r)
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if len(g.Succ(0)) != 2 {
		t.Errorf("successors of 0 = %v, want the edge twice", g.Succ(0))
	}
	if _, err := g.TopoSort(); err != nil {
		t.Errorf("parallel edges should not break topo sort: %v", err)
	}
}

func TestAddEdgeBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge should panic")
		}
	}()
	New(1).AddEdge(0, 1)
}

// randomDigraph builds a reproducible random graph from a seed.
func randomDigraph(seed int64, n, m int) *Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestQuickSCCPartition(t *testing.T) {
	// Components partition the node set.
	f := func(seed int64, n8, m8 uint8) bool {
		n := int(n8%40) + 1
		m := int(m8 % 120)
		g := randomDigraph(seed, n, m)
		comps := g.SCC()
		seen := map[int]int{}
		for _, c := range comps {
			for _, v := range c {
				seen[v]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCondensationIsDAG(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		n := int(n8%40) + 1
		m := int(m8 % 120)
		g := randomDigraph(seed, n, m)
		return g.Condense().DAG.IsDAG()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSCCMutualReachability(t *testing.T) {
	// Two nodes share a component iff mutually reachable.
	f := func(seed int64, n8, m8 uint8) bool {
		n := int(n8%16) + 1
		m := int(m8 % 48)
		g := randomDigraph(seed, n, m)
		c := g.Condense()
		reach := make([]map[int]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = g.Reachable(v)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := reach[u][v] && reach[v][u]
				if mutual != (c.Comp[u] == c.Comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSCCOrderReverseTopological(t *testing.T) {
	// If component i can reach component j (i != j), then j appears before i
	// in the SCC output order.
	f := func(seed int64, n8, m8 uint8) bool {
		n := int(n8%24) + 1
		m := int(m8 % 72)
		g := randomDigraph(seed, n, m)
		c := g.Condense()
		for u := 0; u < n; u++ {
			for _, v := range g.Succ(u) {
				if c.Comp[u] != c.Comp[v] && c.Comp[v] > c.Comp[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
