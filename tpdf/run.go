package tpdf

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/tpdf/obs"
)

// bind returns the graph's Program bound at the configured valuation: the
// one lowering behind Simulate, Schedule and GenerateCode. WithCompiled
// makes it stamp the shared compile product instead of compiling g (which
// must then be the compiled graph, or nil).
func (c *config) bind(g *Graph) (*core.Program, error) {
	if c.compiled == nil {
		return core.Bind(g, c.env())
	}
	if g != nil && g != c.compiled.sk.Source() {
		return nil, fmt.Errorf("tpdf: WithCompiled graph was compiled from a different graph than the one passed")
	}
	prog := c.compiled.sk.NewProgram()
	if err := prog.Rebind(c.env()); err != nil {
		return nil, err
	}
	return prog, nil
}

// Simulate executes the graph token-accurately in virtual time and reports
// firings, completion time and per-channel buffer high-water marks.
// Relevant options: WithParams, WithIterations, WithProcessors,
// WithDecisions, WithContext, WithTrace, WithRecord, WithCompiled,
// WithMetrics (event counters published to the registry after the run).
func Simulate(g *Graph, opts ...Option) (*SimResult, error) {
	cfg := buildConfig(opts)
	prog, err := cfg.bind(g)
	if err != nil {
		return nil, err
	}
	s, err := sim.NewSimulatorFromProgram(prog, sim.Config{
		Context:    cfg.ctx,
		Iterations: cfg.iterations,
		Processors: cfg.processors,
		Decide:     cfg.decide,
		OnFire:     cfg.onFire,
		Record:     cfg.record,
	})
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if cfg.metrics != nil {
		ctr := s.Counters()
		snap := obs.SimSnapshot{
			Runs:          ctr.Runs,
			Events:        ctr.Events,
			Firings:       ctr.Firings,
			ClockTicks:    ctr.ClockTicks,
			MaxEventQueue: ctr.MaxEventQueue,
		}
		if res != nil {
			snap.VirtualTime = res.Time
		}
		cfg.metrics.UpdateSim(snap)
	}
	return res, err
}

// Execute runs the graph at the payload level: behaviors map node names to
// firing functions that consume and produce real values, fired one at a
// time down a sequential schedule. Relevant options: WithParams,
// WithIterations, WithContext. See Stream for the concurrent counterpart.
func Execute(g *Graph, behaviors map[string]Behavior, opts ...Option) (*ExecResult, error) {
	cfg := buildConfig(opts)
	return runner.Run(runner.Config{
		Graph:      g,
		Env:        cfg.env(),
		Context:    cfg.ctx,
		Behaviors:  behaviors,
		Iterations: cfg.iterations,
	})
}

// ScheduleItem is one scheduled firing of the canonical period.
type ScheduleItem struct {
	// Actor is the actor name; Firing its 1-based ordinal within the
	// period (A1, A2, ... in the paper's notation).
	Actor  string
	Firing int64
	PE     int
	Start  int64
	End    int64
}

// ScheduleResult is a verified static schedule of one canonical period.
type ScheduleResult struct {
	// Firings is the canonical period length; RepetitionVector the
	// concrete q it expands.
	Firings          int
	RepetitionVector []int64
	Items            []ScheduleItem
	Makespan         int64
	Utilization      float64
	// CriticalPath is the precedence-graph lower bound on any schedule
	// (0 when unavailable); MCR the steady-state period bound from the
	// maximum cycle ratio (0 when unavailable).
	CriticalPath int64
	MCR          float64
}

// Gantt renders the schedule as an ASCII Gantt chart of the given width.
func (r *ScheduleResult) Gantt(width int) string {
	items := make([]trace.GanttItem, len(r.Items))
	for i, it := range r.Items {
		items[i] = trace.GanttItem{
			Lane:  it.PE,
			Label: fmt.Sprintf("%s%d", it.Actor, it.Firing),
			Start: it.Start,
			End:   it.End,
		}
	}
	return trace.Gantt(items, width)
}

// Schedule builds the canonical period of the graph (§III-D) and
// list-schedules it with the control-priority rule onto the target
// platform, verifying the result against the precedence constraints.
// Relevant options: WithParams, WithPlatform, WithProcessors,
// WithoutControlPriority, WithCompiled.
func Schedule(g *Graph, opts ...Option) (*ScheduleResult, error) {
	cfg := buildConfig(opts)
	plat := cfg.platform
	if plat == nil {
		n := cfg.processors
		if n <= 0 {
			n = 8
		}
		plat = platform.Simple(n)
	}

	prog, err := cfg.bind(g)
	if err != nil {
		return nil, err
	}
	prec, err := prog.CanonicalPeriod()
	if err != nil {
		return nil, err
	}
	cg, sol := prog.Concrete(), prog.Solution()
	sopts := sched.Options{
		Platform:        plat,
		PEs:             cfg.processors,
		ControlPriority: cfg.controlPriority,
		IsControl:       prog.ControlActors(),
	}
	res, err := sched.ListSchedule(cg, prec, sopts)
	if err != nil {
		return nil, err
	}
	if err := sched.Verify(cg, prec, sopts, res); err != nil {
		return nil, fmt.Errorf("tpdf: schedule failed verification: %v", err)
	}

	out := &ScheduleResult{
		Firings:          prec.N(),
		RepetitionVector: sol.Q,
		Makespan:         res.Makespan,
		Utilization:      res.Utilization(),
		Items:            make([]ScheduleItem, len(res.Items)),
	}
	for u := range res.Items {
		f := prec.Firings[u]
		out.Items[u] = ScheduleItem{
			Actor:  cg.Actors[f.Actor].Name,
			Firing: f.K + 1,
			PE:     res.Items[u].PE,
			Start:  res.Items[u].Start,
			End:    res.Items[u].End,
		}
	}
	if cp, _, err := prec.CriticalPath(cg); err == nil {
		out.CriticalPath = cp
	}
	if mcr, err := cg.MaxCycleRatio(sol, 1e-6); err == nil {
		out.MCR = mcr
	}
	return out, nil
}

// GenerateCode emits quasi-static Go scheduling code for the graph
// (WithParams selects the valuation; WithCompiled is honoured).
func GenerateCode(g *Graph, opts ...Option) (string, error) {
	cfg := buildConfig(opts)
	prog, err := cfg.bind(g)
	if err != nil {
		return "", err
	}
	return codegen.Generate(prog, codegen.Options{})
}

// MinimalBuffers searches the smallest per-edge capacities under which the
// configured run still completes (deadlock-free), a per-edge refinement of
// Report.BufferBound: one bisection per edge against a pooled simulator, on
// the caller's goroutine. An edge reported as 0 carried no token in the run
// (the branch a mode rejects): it needs no buffer, which is not the same as
// a channel bounded at 0 — leave it unbounded. Options as for Simulate.
func MinimalBuffers(g *Graph, opts ...Option) ([]int64, error) {
	cfg := buildConfig(opts)
	return sim.MinimalCapacities(sim.Config{
		Graph:      g,
		Context:    cfg.ctx,
		Env:        cfg.env(),
		Iterations: cfg.iterations,
		Processors: cfg.processors,
		Decide:     cfg.decide,
	})
}
