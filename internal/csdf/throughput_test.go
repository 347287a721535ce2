package csdf

import (
	"math"
	"testing"
)

func TestMCRSingleActorSelfPeriod(t *testing.T) {
	// One actor, exec 7, feeding itself through a sink: period = 7 (the
	// serialization self-loop).
	g := NewGraph()
	a := g.AddActor("a", 7)
	b := g.AddActor("b", 3)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	sol, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	mcr, err := g.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mcr-7) > 1e-3 {
		t.Errorf("MCR = %g, want 7 (slowest serialized actor)", mcr)
	}
}

func TestMCRPipelineBottleneck(t *testing.T) {
	// a(2) -> b(5) -> c(3): the pipeline's steady-state period is the
	// bottleneck stage, 5.
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 5)
	c := g.AddActor("c", 3)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	g.Connect(b, []int64{1}, c, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	mcr, err := g.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mcr-5) > 1e-3 {
		t.Errorf("MCR = %g, want 5", mcr)
	}
}

func TestMCRFeedbackCycleDominates(t *testing.T) {
	// a(4) <-> b(6) with one token in the loop: the cycle executes
	// alternately, period = (4+6)/1 = 10, above either actor alone.
	g := NewGraph()
	a := g.AddActor("a", 4)
	b := g.AddActor("b", 6)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	g.Connect(b, []int64{1}, a, []int64{1}, 1)
	sol, _ := g.RepetitionVector()
	mcr, err := g.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mcr-10) > 1e-3 {
		t.Errorf("MCR = %g, want 10 (the feedback cycle)", mcr)
	}
}

func TestMCRMoreTokensMorePipelining(t *testing.T) {
	// Same loop with two tokens: two firings in flight, period halves.
	g := NewGraph()
	a := g.AddActor("a", 4)
	b := g.AddActor("b", 6)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	g.Connect(b, []int64{1}, a, []int64{1}, 2)
	sol, _ := g.RepetitionVector()
	mcr, err := g.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle ratio (4+6)/2 = 5, but each actor's serialization loop also
	// bounds: max(4, 6, 5) = 6.
	if math.Abs(mcr-6) > 1e-3 {
		t.Errorf("MCR = %g, want 6 (actor b's own period)", mcr)
	}
}

func TestMCRMultiRate(t *testing.T) {
	// a(1) produces 2, b(3) consumes 1: q = [1, 2]; b fires twice per
	// iteration serialized -> period 6 per iteration; a contributes 1.
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 3)
	g.Connect(a, []int64{2}, b, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	mcr, err := g.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mcr-6) > 1e-3 {
		t.Errorf("MCR = %g, want 6 (two serialized b firings)", mcr)
	}
}

func TestMCRDeadlockedGraphRejected(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	g.Connect(b, []int64{1}, a, []int64{1}, 0) // no tokens: deadlock
	sol, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.MaxCycleRatio(sol, 1e-6); err == nil {
		t.Fatal("deadlocked graph must have no feasible period")
	}
}

func TestMCRZeroWork(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 0)
	b := g.AddActor("b", 0)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	mcr, err := g.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if mcr != 0 {
		t.Errorf("MCR = %g, want 0", mcr)
	}
}

func TestUnfoldPrecedenceShape(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 5)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	p, err := g.UnfoldPrecedence(sol, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 6 {
		t.Fatalf("unfolded 3 iterations of 2 firings = %d nodes, want 6", p.N())
	}
	if !p.Digraph().IsDAG() {
		t.Fatal("unfolded precedence must be acyclic")
	}
	// b of iteration 2 depends on a of iteration 2 and b of iteration 1.
	b2 := p.NodeID(b, 2)
	if b2 < 0 {
		t.Fatal("firing lookup failed")
	}
	depActors := map[int]bool{}
	for _, d := range p.Deps[b2] {
		depActors[p.Firings[d].Actor] = true
	}
	if !depActors[a] || !depActors[b] {
		t.Errorf("deps of b@2 = %v, want data + serialization", p.Deps[b2])
	}
	if _, err := g.UnfoldPrecedence(sol, 0); err == nil {
		t.Error("unfold factor 0 must fail")
	}
}

func TestUnfoldedCriticalPathApproachesMCR(t *testing.T) {
	// Pipeline a(2) -> b(5) -> c(3): MCR = 5. The critical path of k
	// unfolded iterations is startup latency + (k-1)*MCR, so the per-
	// iteration cost converges to 5 from above.
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 5)
	c := g.AddActor("c", 3)
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	g.Connect(b, []int64{1}, c, []int64{1}, 0)
	sol, _ := g.RepetitionVector()
	var cp1, cp8 int64
	{
		p, err := g.UnfoldPrecedence(sol, 1)
		if err != nil {
			t.Fatal(err)
		}
		cp1, _, err = p.CriticalPath(g)
		if err != nil {
			t.Fatal(err)
		}
	}
	{
		p, err := g.UnfoldPrecedence(sol, 8)
		if err != nil {
			t.Fatal(err)
		}
		cp8, _, err = p.CriticalPath(g)
		if err != nil {
			t.Fatal(err)
		}
	}
	if cp1 != 10 {
		t.Errorf("one-iteration critical path = %d, want 10", cp1)
	}
	// cp8 = 10 + 7*5 = 45.
	if cp8 != 45 {
		t.Errorf("8-iteration critical path = %d, want 45 (startup + 7×MCR)", cp8)
	}
}

func TestQuickMCRAcyclicEqualsBottleneck(t *testing.T) {
	// For any acyclic graph the only cycles are the per-actor serialization
	// loops, so MCR == max over actors of q_j·exec_j (work per iteration of
	// the busiest actor).
	rng := newRand(17)
	for trial := 0; trial < 25; trial++ {
		g := NewGraph()
		n := rng()%4 + 2
		prev := g.AddActor("n0", int64(rng()%5+1))
		for i := 1; i < n; i++ {
			cur := g.AddActor(nameFor(i), int64(rng()%5+1))
			g.Connect(prev, []int64{int64(rng()%3 + 1)}, cur, []int64{int64(rng()%3 + 1)}, 0)
			prev = cur
		}
		sol, err := g.RepetitionVector()
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for j := range g.Actors {
			var w int64
			for k := int64(0); k < sol.Q[j]; k++ {
				w += g.Actors[j].ExecAt(k)
			}
			if f := float64(w); f > want {
				want = f
			}
		}
		mcr, err := g.MaxCycleRatio(sol, 1e-6)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if diff := mcr - want; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("trial %d: MCR = %g, want bottleneck %g\n%s", trial, mcr, want, g)
		}
	}
}

// newRand is a tiny deterministic generator for table-driven fuzzing
// without importing math/rand in this file.
func newRand(seed uint64) func() int {
	s := seed
	return func() int {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return int((s * 0x2545F4914F6CDD1D) >> 33)
	}
}

func TestMCRInitialTokensSpanningIterations(t *testing.T) {
	// Many initial tokens decouple producer and consumer across several
	// iterations; the delays must absorb them without error.
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	g.Connect(a, []int64{1}, b, []int64{1}, 7)
	sol, _ := g.RepetitionVector()
	mcr, err := g.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Fully decoupled for 7 iterations: each actor runs at its own rate;
	// bound is the slower actor, 3.
	if math.Abs(mcr-3) > 1e-3 {
		t.Errorf("MCR = %g, want 3", mcr)
	}
}
