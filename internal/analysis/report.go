package analysis

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/symb"
)

// Report aggregates the complete §III analysis chain for a TPDF graph.
type Report struct {
	Graph      *core.Graph
	Solution   *Solution
	Safety     []SafetyResult
	Liveness   *LivenessReport
	Consistent bool
	RateSafe   bool
	Live       bool
	// Bounded is the Theorem 2 verdict: a rate-consistent, safe and live
	// TPDF graph returns to its initial state after each iteration and can
	// be scheduled in bounded memory.
	Bounded bool
	// Err holds the first fatal analysis error (e.g. inconsistency).
	Err error
}

// Analyze runs rate consistency, rate safety and liveness, probing liveness
// at the graph's representative parameter valuations (core.Graph.ProbeEnvs).
func Analyze(g *core.Graph) (rep *Report) {
	rep = &Report{Graph: g}
	// Symbolic coefficient overflow anywhere in the chain ends the analysis
	// with rep.Err wrapping rat.ErrOverflow.
	defer symb.CatchOverflow(&rep.Err)
	sol, err := Consistency(g)
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Solution = sol
	rep.Consistent = true

	rep.Safety = RateSafety(g, sol)
	rep.RateSafe = true
	for _, s := range rep.Safety {
		if s.Err != nil {
			rep.RateSafe = false
		}
	}

	lr, err := Liveness(g, sol, g.ProbeEnvs()...)
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Liveness = lr
	rep.Live = lr.Live

	rep.Bounded = rep.Consistent && rep.RateSafe && rep.Live
	return rep
}

// String renders the full report as the CLI prints it.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TPDF analysis of %q\n", r.Graph.Name)
	if r.Err != nil {
		fmt.Fprintf(&b, "  FATAL: %v\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  consistency: OK, q = %s\n", r.Solution.QString())
	fmt.Fprintf(&b, "  schedule:    %s\n", r.Solution.ScheduleString())
	for _, s := range r.Safety {
		name := r.Graph.Nodes[s.Ctrl].Name
		fmt.Fprintf(&b, "  control %s: area {%s}", name, strings.Join(Names(r.Graph, s.Area.Members), ","))
		if s.Local != nil {
			fmt.Fprintf(&b, ", local %s", s.Local.LocalString(r.Graph))
		}
		if s.Err != nil {
			fmt.Fprintf(&b, " — UNSAFE: %v", s.Err)
		} else {
			b.WriteString(" — rate safe")
		}
		b.WriteByte('\n')
	}
	if r.Liveness != nil {
		if len(r.Liveness.Cycles) == 0 {
			b.WriteString("  liveness:    acyclic — live\n")
		} else {
			for i := range r.Liveness.Cycles {
				c := &r.Liveness.Cycles[i]
				fmt.Fprintf(&b, "  cycle {%s}: ", strings.Join(Names(r.Graph, c.Members), ","))
				if c.Live {
					fmt.Fprintf(&b, "live, local schedule %s\n", c.LocalString(r.Graph))
				} else {
					fmt.Fprintf(&b, "DEADLOCK: %v\n", c.Err)
				}
			}
			fmt.Fprintf(&b, "  clustered:   %s\n", ClusteredScheduleString(r.Graph, r.Solution, r.Liveness))
		}
	}
	verdict := "NOT BOUNDED"
	if r.Bounded {
		verdict = "bounded (Theorem 2: returns to initial state each iteration)"
	}
	fmt.Fprintf(&b, "  boundedness: %s\n", verdict)
	return b.String()
}
