// Package csdf implements Cyclo-Static Dataflow (Bilsen et al., 1995), the
// base model that TPDF extends (§II-A of the paper). It provides the graph
// model, the topology matrix and repetition vector of Theorem 1, validity
// checks, sequential schedule (PASS) construction with buffer accounting,
// and the firing-level precedence graph used for canonical periods.
//
// All quantities are concrete integers: parametric TPDF graphs are lowered
// to csdf.Graph by instantiating their parameters (see internal/core).
package csdf

import (
	"fmt"
	"strings"

	"repro/internal/rat"
)

// Actor is a cyclo-static actor. Its phase count τ is the least common
// multiple of the lengths of the rate sequences on its ports; rate sequences
// cycle independently, which is equivalent to padding them to τ.
type Actor struct {
	Name string
	// Exec is the execution time per phase in abstract time units
	// (nanoseconds in the simulator). Length 0 means zero cost; length 1
	// applies to every phase; otherwise it cycles like a rate sequence.
	Exec []int64
}

// ExecAt returns the execution time of firing n (0-based).
func (a *Actor) ExecAt(n int64) int64 {
	if len(a.Exec) == 0 {
		return 0
	}
	return a.Exec[int(n%int64(len(a.Exec)))]
}

// Edge is a FIFO channel from actor Src to actor Dst with cyclo-static
// production and consumption rate sequences and an initial token count.
type Edge struct {
	Name    string
	Src     int
	Dst     int
	Prod    []int64 // cyclic production rates, indexed by Src firing count
	Cons    []int64 // cyclic consumption rates, indexed by Dst firing count
	Initial int64
}

// ProdAt returns the production rate of the n-th firing of the producer.
func (e *Edge) ProdAt(n int64) int64 { return rateAt(e.Prod, n) }

// ConsAt returns the consumption rate of the n-th firing of the consumer.
func (e *Edge) ConsAt(n int64) int64 { return rateAt(e.Cons, n) }

func rateAt(seq []int64, n int64) int64 {
	if len(seq) == 0 {
		return 0
	}
	return seq[int(n%int64(len(seq)))]
}

// CumProd returns X(n): total tokens produced during the first n firings.
func (e *Edge) CumProd(n int64) int64 { return cumRate(e.Prod, n) }

// CumCons returns Y(n): total tokens consumed during the first n firings.
func (e *Edge) CumCons(n int64) int64 { return cumRate(e.Cons, n) }

func cumRate(seq []int64, n int64) int64 {
	if len(seq) == 0 || n <= 0 {
		return 0
	}
	l := int64(len(seq))
	var cycle int64
	for _, v := range seq {
		cycle += v
	}
	total := (n / l) * cycle
	for i := int64(0); i < n%l; i++ {
		total += seq[i]
	}
	return total
}

func sum64(seq []int64) int64 {
	var s int64
	for _, v := range seq {
		s += v
	}
	return s
}

// Graph is a CSDF graph.
type Graph struct {
	Actors []Actor
	Edges  []Edge

	byName map[string]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byName: map[string]int{}}
}

// AddActor adds an actor and returns its index. Exec follows Actor.Exec
// conventions. Duplicate names are rejected by Validate.
func (g *Graph) AddActor(name string, exec ...int64) int {
	g.Actors = append(g.Actors, Actor{Name: name, Exec: exec})
	if g.byName == nil {
		g.byName = map[string]int{}
	}
	if _, dup := g.byName[name]; !dup {
		g.byName[name] = len(g.Actors) - 1
	}
	return len(g.Actors) - 1
}

// ActorIndex returns the index of the named actor.
func (g *Graph) ActorIndex(name string) (int, bool) {
	i, ok := g.byName[name]
	return i, ok
}

// Connect adds an edge src -> dst with the given rate sequences and initial
// tokens, returning its index.
func (g *Graph) Connect(src int, prod []int64, dst int, cons []int64, initial int64) int {
	g.Edges = append(g.Edges, Edge{
		Name: fmt.Sprintf("e%d", len(g.Edges)+1),
		Src:  src, Dst: dst,
		Prod: prod, Cons: cons, Initial: initial,
	})
	return len(g.Edges) - 1
}

// ConnectNamed is Connect with an explicit edge name.
func (g *Graph) ConnectNamed(name string, src int, prod []int64, dst int, cons []int64, initial int64) int {
	i := g.Connect(src, prod, dst, cons, initial)
	g.Edges[i].Name = name
	return i
}

// Phases returns τ_j for actor j: the LCM of the rate-sequence lengths on
// its ports (and of its Exec sequence), at least 1.
func (g *Graph) Phases(j int) int64 {
	tau := int64(1)
	merge := func(l int) {
		if l == 0 {
			return
		}
		v, ok := rat.LCM64(tau, int64(l))
		if ok {
			tau = v
		}
	}
	merge(len(g.Actors[j].Exec))
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Src == j {
			merge(len(e.Prod))
		}
		if e.Dst == j {
			merge(len(e.Cons))
		}
	}
	return tau
}

// Validate checks structural sanity: indices in range, unique actor names,
// non-negative rates and initial tokens, and at least one positive rate in
// every non-empty sequence.
func (g *Graph) Validate() error {
	names := map[string]bool{}
	for i := range g.Actors {
		n := g.Actors[i].Name
		if n == "" {
			return fmt.Errorf("csdf: actor %d has empty name", i)
		}
		if names[n] {
			return fmt.Errorf("csdf: duplicate actor name %q", n)
		}
		names[n] = true
		for _, t := range g.Actors[i].Exec {
			if t < 0 {
				return fmt.Errorf("csdf: actor %q has negative execution time", n)
			}
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Src < 0 || e.Src >= len(g.Actors) || e.Dst < 0 || e.Dst >= len(g.Actors) {
			return fmt.Errorf("csdf: edge %q endpoints out of range", e.Name)
		}
		if e.Initial < 0 {
			return fmt.Errorf("csdf: edge %q has negative initial tokens", e.Name)
		}
		if len(e.Prod) == 0 || len(e.Cons) == 0 {
			return fmt.Errorf("csdf: edge %q missing rate sequence", e.Name)
		}
		if err := checkSeq(e.Prod, e.Name, "production"); err != nil {
			return err
		}
		if err := checkSeq(e.Cons, e.Name, "consumption"); err != nil {
			return err
		}
	}
	return nil
}

func checkSeq(seq []int64, edge, kind string) error {
	pos := false
	for _, v := range seq {
		if v < 0 {
			return fmt.Errorf("csdf: edge %q has negative %s rate", edge, kind)
		}
		if v > 0 {
			pos = true
		}
	}
	if !pos {
		return fmt.Errorf("csdf: edge %q has all-zero %s sequence", edge, kind)
	}
	return nil
}

// String renders the graph compactly for debugging and reports.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "csdf.Graph{%d actors, %d edges}\n", len(g.Actors), len(g.Edges))
	for i := range g.Edges {
		e := &g.Edges[i]
		fmt.Fprintf(&b, "  %s: %s %v -> %v %s", e.Name,
			g.Actors[e.Src].Name, e.Prod, e.Cons, g.Actors[e.Dst].Name)
		if e.Initial > 0 {
			fmt.Fprintf(&b, " (init %d)", e.Initial)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	for i := range g.Actors {
		out.AddActor(g.Actors[i].Name, append([]int64(nil), g.Actors[i].Exec...)...)
	}
	for i := range g.Edges {
		e := g.Edges[i]
		e.Prod = append([]int64(nil), e.Prod...)
		e.Cons = append([]int64(nil), e.Cons...)
		out.Edges = append(out.Edges, e)
	}
	return out
}
