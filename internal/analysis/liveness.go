package analysis

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/symb"
)

// Cycle is one non-trivial strongly connected component of the TPDF graph
// together with its liveness verdict.
type Cycle struct {
	Members []core.NodeID
	// QG is the symbolic gcd of the members' firing ratios: the cluster Ω
	// fires QG times per global iteration (Fig. 4c).
	QG symb.Expr
	// LocalOrder is a valid firing order for one local iteration evaluated
	// at the default parameter valuation (the late schedule of [8] when one
	// exists under the run-length policy, e.g. (B C C B) for Fig. 4b).
	LocalOrder []core.NodeID
	// Live reports whether a local schedule exists at every probed
	// valuation.
	Live bool
	Err  error
}

// LocalString renders the cycle's local schedule, e.g. "(B C C B)".
func (c *Cycle) LocalString(g *core.Graph) string {
	if len(c.LocalOrder) == 0 {
		return "(deadlocked)"
	}
	parts := make([]string, len(c.LocalOrder))
	for i, id := range c.LocalOrder {
		parts[i] = g.Nodes[id].Name
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// LivenessReport aggregates the §III-C analysis.
type LivenessReport struct {
	Cycles []Cycle
	// Live is true when every cycle admits a local schedule. The acyclic
	// remainder of a consistent graph is always schedulable, and topology
	// changes by control tokens cannot introduce deadlock (they only reject
	// tokens), so this is the complete liveness condition.
	Live bool
}

// Liveness checks liveness by clustering (§III-C). Cycles are detected on
// the full node graph (data and control edges); each non-trivial SCC must
// admit a local iteration schedule, verified by token-accurate simulation of
// the sub-graph at each probed parameter valuation. Greedy simulation is
// complete here: firing one actor can only add tokens to another actor's
// inputs (each channel has a single consumer), so enabledness is monotone
// and a stuck maximal simulation proves deadlock.
func Liveness(g *core.Graph, sol *Solution, envs ...symb.Env) (*LivenessReport, error) {
	if len(envs) == 0 {
		envs = []symb.Env{g.DefaultEnv()}
	}
	d := dataDigraph(g)
	rep := &LivenessReport{Live: true}
	// The graph is compiled once, on the first cycle found; every probe
	// rebinds that Program at its valuation.
	var prog *core.Program
	var compileErr error
	for _, comp := range d.Condense().Comps {
		if len(comp) == 1 && !d.HasSelfLoop(comp[0]) {
			continue
		}
		members := make([]core.NodeID, len(comp))
		for i, v := range comp {
			members[i] = core.NodeID(v)
		}
		slices.Sort(members)
		cyc := Cycle{Members: members}
		if local, err := LocalSolution(sol, members); err == nil {
			cyc.QG = local.QG
		}
		if prog == nil && compileErr == nil {
			prog, compileErr = core.Compile(g)
		}
		cyc.Err = compileErr
		// The first deadlocked valuation settles the cycle's verdict.
		for i := 0; i < len(envs) && cyc.Err == nil; i++ {
			var order []core.NodeID
			if order, cyc.Err = localScheduleProgram(prog, members, envs[i]); i == 0 {
				cyc.LocalOrder = order
			}
		}
		cyc.Live = cyc.Err == nil
		rep.Live = rep.Live && cyc.Live
		rep.Cycles = append(rep.Cycles, cyc)
	}
	return rep, nil
}

// localScheduleProgram rebinds the compiled graph at env, builds the
// sub-CSDF graph induced by the members (internal edges only), computes the
// concrete local repetition counts qL = q / gcd(r) and returns a valid
// firing order, or an error when the cycle deadlocks.
func localScheduleProgram(prog *core.Program, members []core.NodeID, env symb.Env) ([]core.NodeID, error) {
	if err := prog.Rebind(env); err != nil {
		return nil, err
	}
	g := prog.Source()
	cg := prog.Concrete()
	low := prog.Lowering()
	csol := prog.Solution()
	inSet := map[core.NodeID]int{} // node -> local index
	for i, m := range members {
		inSet[m] = i
	}
	sub := csdf.NewGraph()
	for _, m := range members {
		n := g.Nodes[m]
		sub.AddActor(n.Name, n.Exec...)
	}
	for ei, e := range g.Edges {
		si, okS := inSet[e.Src]
		di, okD := inSet[e.Dst]
		if !okS || !okD {
			continue
		}
		ce := cg.Edges[low.EdgeOf[ei]]
		sub.ConnectNamed(ce.Name, si, ce.Prod, di, ce.Cons, ce.Initial)
	}
	// Concrete local solution: qG = gcd of r over members; qL = q / qG.
	var qg int64
	for _, m := range members {
		qg = gcd64(qg, csol.R[low.ActorOf[m]])
	}
	if qg == 0 {
		return nil, fmt.Errorf("analysis: zero local gcd")
	}
	ql := make([]int64, len(members))
	for i, m := range members {
		ql[i] = csol.Q[low.ActorOf[m]] / qg
	}
	s, err := sub.BuildSchedule(&csdf.Solution{Q: ql}, csdf.RunLength)
	if err != nil {
		// The run-length heuristic is also complete (it is a maximal greedy
		// strategy), but keep the eager fallback for defence in depth.
		s, err = sub.BuildSchedule(&csdf.Solution{Q: ql}, csdf.Eager)
		if err != nil {
			return nil, fmt.Errorf("analysis: cycle {%s} deadlocks: %v",
				strings.Join(Names(g, members), ","), err)
		}
	}
	out := make([]core.NodeID, len(s.Order))
	for i, a := range s.Order {
		out[i] = members[a]
	}
	return out, nil
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ClusteredScheduleString renders the global schedule after clustering each
// cycle into an Ω actor, e.g. "A^2 Ω^p" with Ω = (B C C B) (§III-C).
func ClusteredScheduleString(g *core.Graph, sol *Solution, rep *LivenessReport) string {
	inCycle := map[core.NodeID]*Cycle{}
	for i := range rep.Cycles {
		for _, m := range rep.Cycles[i].Members {
			inCycle[m] = &rep.Cycles[i]
		}
	}
	cond := dataDigraph(g).Condense()
	var parts []string
	emitted := map[*Cycle]bool{}
	for ci := len(cond.Comps) - 1; ci >= 0; ci-- {
		members := slices.Clone(cond.Comps[ci])
		slices.Sort(members)
		for _, j := range members {
			id := core.NodeID(j)
			if cyc, ok := inCycle[id]; ok {
				if emitted[cyc] {
					continue
				}
				emitted[cyc] = true
				exp := cyc.QG
				body := cyc.LocalString(g)
				if exp.IsOne() {
					parts = append(parts, body)
				} else {
					parts = append(parts, fmt.Sprintf("%s^%s", body, compact(exp)))
				}
				continue
			}
			q := sol.Q[id]
			if q.IsOne() {
				parts = append(parts, g.Nodes[id].Name)
			} else {
				parts = append(parts, fmt.Sprintf("%s^%s", g.Nodes[id].Name, compact(q)))
			}
		}
	}
	return strings.Join(parts, " ")
}
