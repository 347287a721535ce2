package csdf

import (
	"strings"
	"testing"
)

func TestActorExecAt(t *testing.T) {
	a := Actor{Name: "x", Exec: []int64{3, 5}}
	wants := []int64{3, 5, 3, 5}
	for n, w := range wants {
		if got := a.ExecAt(int64(n)); got != w {
			t.Errorf("ExecAt(%d) = %d, want %d", n, got, w)
		}
	}
	empty := Actor{Name: "y"}
	if empty.ExecAt(0) != 0 {
		t.Error("empty exec must cost 0")
	}
	single := Actor{Name: "z", Exec: []int64{7}}
	if single.ExecAt(42) != 7 {
		t.Error("single exec applies to every phase")
	}
}

func TestGraphString(t *testing.T) {
	g := fig1Graph()
	s := g.String()
	for _, frag := range []string{"3 actors", "3 edges", "(init 2)", "a1", "e3"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q:\n%s", frag, s)
		}
	}
}

func TestScheduleFormatSingles(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a")
	b := g.AddActor("b")
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	s, err := g.BuildSchedule(sol, Eager)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Format(g); got != "a b" {
		t.Errorf("Format = %q, want \"a b\" (no exponents on single firings)", got)
	}
}

func TestIterationTokens(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a")
	b := g.AddActor("b")
	e := &g.Edges[g.Connect(a, []int64{3}, b, []int64{2}, 0)]
	sol, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	// q = [2, 3]: one iteration moves 6 tokens over the edge, produced and
	// consumed alike (the balance equation).
	if prod, cons := e.CumProd(sol.Q[e.Src]), e.CumCons(sol.Q[e.Dst]); prod != 6 || cons != 6 {
		t.Errorf("tokens per iteration: produced %d, consumed %d, want 6 and 6", prod, cons)
	}
}

func TestDemandPolicyDiamond(t *testing.T) {
	// Diamond: src -> {l, r} -> sink; demand scheduling must still complete
	// and keep buffers tight.
	g := NewGraph()
	src := g.AddActor("src")
	l := g.AddActor("l")
	r := g.AddActor("r")
	snk := g.AddActor("snk")
	g.Connect(src, []int64{1}, l, []int64{1}, 0)
	g.Connect(src, []int64{1}, r, []int64{1}, 0)
	g.Connect(l, []int64{1}, snk, []int64{1}, 0)
	g.Connect(r, []int64{1}, snk, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	s, err := g.BuildSchedule(sol, Demand)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalBuffer() > 4 {
		t.Errorf("diamond demand buffer = %d, want <= 4", s.TotalBuffer())
	}
}

func TestBuildScheduleMultiIterStability(t *testing.T) {
	// Running the schedule twice from the final state must reproduce the
	// same buffer bounds (the state is periodic).
	g := fig1Graph()
	sol, _ := g.RepetitionVector()
	s1, err := g.BuildSchedule(sol, Eager)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the same order twice over: admissible, same high-water marks.
	order2 := append(append([]int(nil), s1.Order...), s1.Order...)
	max2, err := g.ReplaySchedule(order2)
	if err != nil {
		t.Fatal(err)
	}
	for ei := range max2 {
		if max2[ei] != s1.MaxTokens[ei] {
			t.Errorf("edge %d: two-iteration max %d != one-iteration %d",
				ei, max2[ei], s1.MaxTokens[ei])
		}
	}
}

func TestNewPrecedenceLookup(t *testing.T) {
	p := NewPrecedence(
		[]Firing{{Actor: 2, K: 0}, {Actor: 5, K: 1}},
		[][]int{nil, {0}},
	)
	if p.NodeID(2, 0) != 0 || p.NodeID(5, 1) != 1 {
		t.Error("NodeID lookup wrong")
	}
	if p.NodeID(9, 9) != -1 {
		t.Error("missing firing must be -1")
	}
	if p.N() != 2 {
		t.Errorf("N = %d", p.N())
	}
}

func TestFiringFormat(t *testing.T) {
	g := fig1Graph()
	f := Firing{Actor: 0, K: 2}
	if got := f.Format(g); got != "a13" {
		t.Errorf("Format = %q, want a13 (1-based ordinal appended)", got)
	}
}

func TestCriticalPathOnDiamond(t *testing.T) {
	g := NewGraph()
	src := g.AddActor("src", 1)
	l := g.AddActor("l", 10)
	r := g.AddActor("r", 2)
	snk := g.AddActor("snk", 1)
	g.Connect(src, []int64{1}, l, []int64{1}, 0)
	g.Connect(src, []int64{1}, r, []int64{1}, 0)
	g.Connect(l, []int64{1}, snk, []int64{1}, 0)
	g.Connect(r, []int64{1}, snk, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	p, err := g.BuildPrecedence(sol, false)
	if err != nil {
		t.Fatal(err)
	}
	cp, path, err := p.CriticalPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 12 {
		t.Errorf("critical path = %d, want 12 (src+l+snk)", cp)
	}
	if len(path) != 3 {
		t.Errorf("path length = %d, want 3", len(path))
	}
	// The heavy branch is on the path.
	onPath := false
	for _, u := range path {
		if p.Firings[u].Actor == l {
			onPath = true
		}
	}
	if !onPath {
		t.Error("critical path must pass through the 10-cost actor")
	}
}
