package tpdf

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/symb"
)

// SafetyVerdict is the rate-safety result for one control actor
// (Definition 5).
type SafetyVerdict struct {
	// Control is the control actor's name.
	Control string
	// Area lists the kernels whose topology the actor controls.
	Area []string
	// Local renders the local solution of the area, when one was derived.
	Local string
	// Safe is true when the actor fires exactly once per local iteration.
	Safe bool
	// Err explains an unsafe or unverifiable actor.
	Err error
}

// CycleVerdict is the liveness result for one cycle of the graph (§III-C).
type CycleVerdict struct {
	Members []string
	// Live reports whether a local schedule exists at every probed
	// valuation; LocalSchedule renders it (e.g. "(B C C B)").
	Live          bool
	LocalSchedule string
	Err           error
}

// Report consolidates the complete §III static-analysis chain plus the
// buffer bound: one call, one struct, one error.
type Report struct {
	GraphName string
	// Consistent is the Theorem 1 verdict; RepetitionVector renders the
	// symbolic vector q and Schedule a single-appearance schedule for it.
	Consistent       bool
	RepetitionVector string
	Schedule         string
	// RateSafe aggregates Safety (every control actor fires exactly once
	// per local iteration of its area).
	RateSafe bool
	Safety   []SafetyVerdict
	// Live aggregates Cycles (every cycle admits a local schedule).
	Live   bool
	Cycles []CycleVerdict
	// Bounded is the Theorem 2 verdict: a consistent, safe and live TPDF
	// graph returns to its initial state each iteration and runs in
	// bounded memory.
	Bounded bool
	// BufferBoundExpr is the symbolic per-iteration buffer requirement
	// (the sum of per-edge traffic plus initial tokens); BufferBound is
	// its value at the analysis parameter valuation.
	BufferBoundExpr string
	BufferBound     int64
	// Err holds the first fatal analysis error (e.g. inconsistency).
	Err error

	clustered string
}

// Analyze runs rate consistency, rate safety, liveness and boundedness on
// the graph and derives its symbolic buffer bound. Probing valuations are
// the parameter defaults and declared range corners; WithParams sets the
// valuation at which BufferBound is evaluated.
func Analyze(g *Graph, opts ...Option) (rep *Report) {
	cfg := buildConfig(opts)
	in := analysis.Analyze(g)

	rep = &Report{
		GraphName:  g.Name,
		Consistent: in.Consistent,
		RateSafe:   in.RateSafe,
		Live:       in.Live,
		Bounded:    in.Bounded,
		Err:        in.Err,
	}
	// The buffer bound sums symbolic traffic; coefficient overflow there is
	// an analysis error like any other, not a panic.
	defer symb.CatchOverflow(&rep.Err)
	if in.Solution != nil {
		rep.RepetitionVector = in.Solution.QString()
		rep.Schedule = in.Solution.ScheduleString()

		bound := analysis.SymbolicBufferBound(g, in.Solution, nil)
		rep.BufferBoundExpr = bound.String()
		env := g.DefaultEnv()
		for k, v := range cfg.params {
			env[k] = v
		}
		if v, err := bound.EvalInt(env, 1); err == nil {
			rep.BufferBound = v
		}
	}
	for _, s := range in.Safety {
		v := SafetyVerdict{
			Control: g.Nodes[s.Ctrl].Name,
			Area:    analysis.Names(g, s.Area.Members),
			Safe:    s.Err == nil,
			Err:     s.Err,
		}
		if s.Local != nil {
			v.Local = s.Local.LocalString(g)
		}
		rep.Safety = append(rep.Safety, v)
	}
	if in.Liveness != nil {
		for i := range in.Liveness.Cycles {
			c := &in.Liveness.Cycles[i]
			rep.Cycles = append(rep.Cycles, CycleVerdict{
				Members:       analysis.Names(g, c.Members),
				Live:          c.Live,
				LocalSchedule: c.LocalString(g),
				Err:           c.Err,
			})
		}
		if len(in.Liveness.Cycles) > 0 && in.Solution != nil {
			rep.clustered = analysis.ClusteredScheduleString(g, in.Solution, in.Liveness)
		}
	}
	return rep
}

// String renders the full report as tpdf-analyze prints it.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TPDF analysis of %q\n", r.GraphName)
	if r.Err != nil {
		fmt.Fprintf(&b, "  FATAL: %v\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  consistency: OK, q = %s\n", r.RepetitionVector)
	fmt.Fprintf(&b, "  schedule:    %s\n", r.Schedule)
	for _, s := range r.Safety {
		fmt.Fprintf(&b, "  control %s: area {%s}", s.Control, strings.Join(s.Area, ","))
		if s.Local != "" {
			fmt.Fprintf(&b, ", local %s", s.Local)
		}
		if s.Err != nil {
			fmt.Fprintf(&b, " — UNSAFE: %v", s.Err)
		} else {
			b.WriteString(" — rate safe")
		}
		b.WriteByte('\n')
	}
	if len(r.Cycles) == 0 {
		b.WriteString("  liveness:    acyclic — live\n")
	} else {
		for _, c := range r.Cycles {
			fmt.Fprintf(&b, "  cycle {%s}: ", strings.Join(c.Members, ","))
			if c.Live {
				fmt.Fprintf(&b, "live, local schedule %s\n", c.LocalSchedule)
			} else {
				fmt.Fprintf(&b, "DEADLOCK: %v\n", c.Err)
			}
		}
		fmt.Fprintf(&b, "  clustered:   %s\n", r.clustered)
	}
	verdict := "NOT BOUNDED"
	if r.Bounded {
		verdict = "bounded (Theorem 2: returns to initial state each iteration)"
	}
	fmt.Fprintf(&b, "  boundedness: %s\n", verdict)
	if r.BufferBoundExpr != "" {
		fmt.Fprintf(&b, "  buffer bound: %s = %d tokens/iteration\n", r.BufferBoundExpr, r.BufferBound)
	}
	return b.String()
}
