package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/imaging"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/symb"
	"repro/internal/trace"
)

// canonicalPeriod binds g at env and builds its canonical period (§III-D):
// the bound program (concrete graph, repetition vector, control flags) and
// the precedence graph the scheduling experiments list-schedule.
func canonicalPeriod(g *core.Graph, env symb.Env) (*core.Program, *csdf.Precedence, error) {
	prog, err := core.Bind(g, env)
	if err != nil {
		return nil, nil, err
	}
	prec, err := prog.CanonicalPeriod()
	if err != nil {
		return nil, nil, err
	}
	return prog, prec, nil
}

// ScheduleAblation measures the §III-D control-priority rule: makespan of
// the Fig. 2 canonical period with and without the rule, across PE counts.
func ScheduleAblation() (string, error) {
	prog, prec, err := canonicalPeriod(apps.Fig2(), symb.Env{"p": 16})
	if err != nil {
		return "", err
	}
	cg := prog.Concrete()
	var rows [][]string
	for _, pe := range []int{2, 4, 8} {
		row := []string{strconv.Itoa(pe)}
		for _, rule := range []bool{true, false} {
			opts := sched.Options{
				Platform:        platform.Simple(pe),
				ControlPriority: rule,
				IsControl:       prog.ControlActors(),
			}
			res, err := sched.ListSchedule(cg, prec, opts)
			if err != nil {
				return "", err
			}
			if err := sched.Verify(cg, prec, opts, res); err != nil {
				return "", err
			}
			row = append(row, itoa(res.Makespan))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("EXT-A1: control-priority scheduling rule ablation (Fig. 2, p=16)\n")
	b.WriteString(trace.Table([]string{"PEs", "makespan (rule on)", "makespan (rule off)"}, rows))
	return b.String(), nil
}

// PlatformSweep schedules the Fig. 2 canonical period over growing slices
// of the MPPA-256 and reports the makespan curve — the §III-D scalability
// story on the paper's target machine. Each point is one list-scheduling
// run of the ~450-firing canonical period.
func PlatformSweep() (string, error) {
	prog, prec, err := canonicalPeriod(apps.Fig2(), symb.Env{"p": 64})
	if err != nil {
		return "", err
	}
	cg := prog.Concrete()
	mppa := platform.MPPA256()
	var rows [][]string
	var base int64 // the 1-PE makespan
	for i, pes := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		res, err := sched.ListSchedule(cg, prec, sched.Options{
			Platform:        mppa,
			PEs:             pes,
			ControlPriority: true,
			IsControl:       prog.ControlActors(),
		})
		if err != nil {
			return "", err
		}
		speedup := "-"
		if i == 0 {
			base = res.Makespan
		} else if res.Makespan > 0 {
			speedup = ftoa(float64(base) / float64(res.Makespan))
		}
		rows = append(rows, []string{
			strconv.Itoa(pes), itoa(res.Makespan), ftoa(res.Utilization()), speedup,
		})
	}
	var b strings.Builder
	b.WriteString("EXT-A2: MPPA-256 platform sweep (Fig. 2, p=64, canonical period)\n")
	b.WriteString(trace.Table([]string{"PEs", "makespan", "utilization", "speedup vs 1PE"}, rows))
	return b.String(), nil
}

// ADFPruning measures the Actor Dependence Function rule (§III-D): when the
// OFDM transaction's mode rejects the QPSK branch, the firings feeding it
// are cancelled, shrinking the canonical period and its makespan.
func ADFPruning() (string, error) {
	params := apps.OFDMParams{Beta: 4, M: 4, N: 32, L: 1}
	g := apps.OFDMTPDF(params)
	prog, prec, err := canonicalPeriod(g, symb.Env(params.Env()))
	if err != nil {
		return "", err
	}
	cg, low, sol := prog.Concrete(), prog.Lowering(), prog.Solution()
	// The rejected edges under QAM mode: DUP->QPSK and QPSK->TRAN.
	rejected := map[int]bool{}
	for ei, e := range g.Edges {
		src := g.Nodes[e.Src].Name
		dst := g.Nodes[e.Dst].Name
		if (src == "DUP" && dst == "QPSK") || (src == "QPSK" && dst == "TRAN") {
			rejected[low.EdgeOf[ei]] = true
		}
	}
	keep := func(actor int) bool {
		switch cg.Actors[actor].Name {
		case "SNK", "TRAN", "CON":
			return true
		}
		return false
	}
	pruned, _ := sched.PruneForModes(cg, prec, sol, rejected, keep)

	opts := sched.Options{Platform: platform.Simple(4), ControlPriority: true, IsControl: prog.ControlActors()}
	fullRes, err := sched.ListSchedule(cg, prec, opts)
	if err != nil {
		return "", err
	}
	prunedRes, err := sched.ListSchedule(cg, pruned, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("EXT-A4: Actor Dependence Function pruning (OFDM, QAM mode)\n")
	b.WriteString(trace.Table(
		[]string{"period", "firings", "makespan"},
		[][]string{
			{"full graph", strconv.Itoa(prec.N()), itoa(fullRes.Makespan)},
			{"ADF-pruned", strconv.Itoa(pruned.N()), itoa(prunedRes.Makespan)},
		}))
	fmt.Fprintf(&b, "  firings cancelled: %d (the QPSK branch)\n", prec.N()-pruned.N())
	return b.String(), nil
}

// AVCQualityThreshold reproduces the §V AVC-encoder improvement: two real
// motion searches (exhaustive vs three-step, from internal/imaging) race
// under frame deadlines; the transaction commits the best finished result.
// The exhaustive full search dominates this experiment's runtime; it shards
// its block rows across imaging.Parallelism.
func AVCQualityThreshold() (string, error) {
	// Quality ground truth from the real searches on a known shift.
	ref := imaging.Synthetic(128, 128, 7)
	cur := imaging.Shift(ref, 3, 2)
	fullSAD := imaging.EstimateFrame(cur, ref, 16, 7, imaging.FullSearch)
	tssSAD := imaging.EstimateFrame(cur, ref, 16, 7, imaging.ThreeStepSearch)

	var rows [][]string
	for _, deadline := range []int64{30, 80} {
		app := apps.MotionEstimation(deadline, 60 /*full*/, 15 /*tss*/)
		res, err := sim.Run(sim.Config{
			Graph:  app.Graph,
			Decide: app.DeadlineDecide(),
			Record: true,
		})
		if err != nil {
			return "", err
		}
		chosen := "(none)"
		for _, ev := range res.Events {
			if ev.Node == "TRAN" && len(ev.Selected) == 1 {
				chosen = app.SearchFor(ev.Selected[0])
			}
		}
		quality := strconv.Itoa(tssSAD)
		if chosen == "ME_FULL" {
			quality = strconv.Itoa(fullSAD)
		}
		rows = append(rows, []string{itoa(deadline), chosen, quality})
	}
	var b strings.Builder
	b.WriteString("EXT-A5: AVC motion-vector quality threshold (§V)\n")
	b.WriteString(trace.Table([]string{"frame budget (ms)", "committed search", "residual SAD"}, rows))
	fmt.Fprintf(&b, "  real search quality: full %d <= three-step %d (lower is better)\n",
		fullSAD, tssSAD)
	return b.String(), nil
}

// ThroughputValidation cross-checks the analytical maximum-cycle-ratio
// period bound against the steady-state iteration period measured by the
// discrete-event simulator, for pipelines and feedback graphs. Unbounded
// self-timed execution must converge to the MCR.
func ThroughputValidation() (string, error) {
	type tcase struct {
		name  string
		graph *core.Graph
	}
	pipe := core.NewGraph("pipe")
	{
		a := pipe.AddKernel("a", 2)
		b := pipe.AddKernel("b", 5)
		c := pipe.AddKernel("c", 3)
		if _, err := pipe.Connect(a, "[1]", b, "[1]", 0); err != nil {
			return "", err
		}
		if _, err := pipe.Connect(b, "[1]", c, "[1]", 0); err != nil {
			return "", err
		}
	}
	loop := core.NewGraph("loop")
	{
		a := loop.AddKernel("a", 4)
		b := loop.AddKernel("b", 6)
		if _, err := loop.Connect(a, "[1]", b, "[1]", 0); err != nil {
			return "", err
		}
		if _, err := loop.Connect(b, "[1]", a, "[1]", 1); err != nil {
			return "", err
		}
	}
	var rows [][]string
	for _, tc := range []tcase{{"3-stage pipeline", pipe}, {"feedback loop", loop}, {"Fig. 2 (p=2)", apps.Fig2()}} {
		prog, err := core.Bind(tc.graph, symb.Env{"p": 2})
		if err != nil {
			return "", err
		}
		mcr, err := prog.Concrete().MaxCycleRatio(prog.Solution(), 1e-6)
		if err != nil {
			return "", err
		}
		measured, err := sim.IterationPeriod(sim.Config{Graph: tc.graph, Env: symb.Env{"p": 2}}, 8, 16)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{tc.name, ftoa(mcr), ftoa(measured)})
	}
	var b strings.Builder
	b.WriteString("EXT-A6: analytical period bound (max cycle ratio) vs simulation\n")
	b.WriteString(trace.Table([]string{"graph", "MCR bound", "simulated period"}, rows))
	return b.String(), nil
}

// PipelinedScheduling schedules k unfolded iterations of the Fig. 2 graph
// (cross-period dependences included) and reports makespan per iteration:
// software pipelining across canonical periods approaches the analytical
// MCR bound.
func PipelinedScheduling() (string, error) {
	prog, err := core.Bind(apps.Fig2(), symb.Env{"p": 4})
	if err != nil {
		return "", err
	}
	cg, sol := prog.Concrete(), prog.Solution()
	mcr, err := cg.MaxCycleRatio(sol, 1e-6)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, k := range []int64{1, 2, 4, 8} {
		prec, err := cg.UnfoldPrecedence(sol, k)
		if err != nil {
			return "", err
		}
		opts := sched.Options{Platform: platform.Simple(8), ControlPriority: true, IsControl: prog.ControlActors()}
		res, err := sched.ListSchedule(cg, prec, opts)
		if err != nil {
			return "", err
		}
		if err := sched.Verify(cg, prec, opts, res); err != nil {
			return "", err
		}
		rows = append(rows, []string{
			itoa(k),
			itoa(res.Makespan),
			ftoa(float64(res.Makespan) / float64(k)),
		})
	}
	var b strings.Builder
	b.WriteString("EXT-A7: pipelined scheduling across canonical periods (Fig. 2, p=4, 8 PEs)\n")
	b.WriteString(trace.Table([]string{"unfold k", "makespan", "makespan / iteration"}, rows))
	fmt.Fprintf(&b, "  analytical period bound (MCR): %.2f\n", mcr)
	return b.String(), nil
}

// CapacityMinimization certifies the Fig. 8 buffer totals: per-edge binary
// search under back-pressured bounded-buffer execution finds the smallest
// capacities that still complete the iteration, and their sum equals the
// paper's analytic 3 + β(12N+L).
func CapacityMinimization() (string, error) {
	params := apps.OFDMParams{Beta: 4, M: 4, N: 64, L: 1}
	g := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(g, params.M)
	if err != nil {
		return "", err
	}
	cfg := sim.Config{Graph: g, Env: symb.Env(params.Env()), Decide: decide}
	caps, ref, err := sim.MinimalCapacitiesRef(cfg)
	if err != nil {
		return "", err
	}
	var rows [][]string
	var total int64
	for ei, e := range g.Edges {
		src, dst := g.Nodes[e.Src].Name, g.Nodes[e.Dst].Name
		rows = append(rows, []string{
			e.Name, src + "->" + dst,
			itoa(ref.HighWater[ei]), itoa(caps[ei]),
		})
		total += caps[ei]
	}
	var b strings.Builder
	b.WriteString("EXT-A8: per-edge minimum buffer capacities (OFDM, β=4, N=64, QAM)\n")
	b.WriteString(trace.Table([]string{"edge", "route", "observed max", "minimal capacity"}, rows))
	fmt.Fprintf(&b, "  total minimal capacity: %d (paper formula 3+β(12N+L) = %d)\n",
		total, apps.PaperTPDFBuffer(params))
	return b.String(), nil
}

// FMRadioComparison is the §V StreamIt observation made concrete: the
// FM-radio pipeline with TPDF band selection against the CSDF version that
// must compute every band.
func FMRadioComparison() (string, error) {
	cres, err := sim.Run(sim.Config{Graph: apps.FMRadioCSDF()})
	if err != nil {
		return "", err
	}
	tg := apps.FMRadioTPDF()
	decide, err := apps.FMRadioSelectBand(tg, 1)
	if err != nil {
		return "", err
	}
	tres, err := sim.Run(sim.Config{Graph: tg, Decide: decide})
	if err != nil {
		return "", err
	}
	var totalFiringsCSDF, totalFiringsTPDF int64
	for _, f := range cres.Firings {
		totalFiringsCSDF += f
	}
	for _, f := range tres.Firings {
		totalFiringsTPDF += f
	}
	var b strings.Builder
	b.WriteString("EXT-A3: FM radio (StreamIt-style), CSDF vs TPDF band selection\n")
	b.WriteString(trace.Table(
		[]string{"model", "total buffer", "total firings", "completion time"},
		[][]string{
			{"CSDF (all bands)", itoa(cres.TotalBuffer()), itoa(totalFiringsCSDF), itoa(cres.Time)},
			{"TPDF (1 band)", itoa(tres.TotalBuffer()), itoa(totalFiringsTPDF), itoa(tres.Time)},
		}))
	fmt.Fprintf(&b, "  redundant work removed: %d firings, %d buffer slots\n",
		totalFiringsCSDF-totalFiringsTPDF, cres.TotalBuffer()-tres.TotalBuffer())
	return b.String(), nil
}
