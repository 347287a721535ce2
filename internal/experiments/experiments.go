// Package experiments regenerates every table and figure of the paper's
// evaluation. Each function produces the textual equivalent of one paper
// artifact (EXP-F1 … EXP-F8, extensions EXT-A1 … EXT-A8) and is driven both
// by the tpdf-bench command and by the repository's root benchmarks, so the
// same code path backs interactive reproduction and performance measurement.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/imaging"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/symb"
	"repro/internal/trace"
)

// Options configures the experiment harness.
type Options struct {
	// Quick selects reduced image sizes and shorter sweeps.
	Quick bool
	// Measure times the real edge detectors in the T6 table. Disable it to
	// make every experiment's output deterministic (the differential
	// parallel-vs-sequential tests rely on this).
	Measure bool
	// Parallel is the worker budget of All's cross-experiment fan-out, of
	// the imaging pixel kernels (t6, a5) and of F8's grid shard; every
	// other generator runs inline. Output is byte-identical whatever the
	// value: results are written by index and joined in sequential order.
	Parallel int
}

// itoa renders an int64 for table rows without fmt's reflection overhead
// (these show up in the a2/a5/t6 sweep profiles).
func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// ftoa renders a float with 2 decimals, the tables' standard precision.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// F1 reproduces Fig. 1: the CSDF example's repetition vector and schedule.
func F1() (string, error) {
	g := apps.Fig1CSDF()
	sol, err := g.RepetitionVector()
	if err != nil {
		return "", err
	}
	s, err := g.BuildSchedule(sol, csdf.RunLength)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("EXP-F1 (Fig. 1): CSDF example\n")
	fmt.Fprintf(&b, "  repetition vector q = %v (paper: [3 2 2])\n", sol.Q)
	fmt.Fprintf(&b, "  schedule           = %s (paper: (a3)^2(a1)^3(a2)^2)\n", s.Format(g))
	ok, err := g.ReturnsToInitial(sol, csdf.RunLength)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  returns to initial state: %v\n", ok)
	return b.String(), nil
}

// F2 reproduces Fig. 2 and Examples 1-3: the symbolic repetition vector,
// the control area of C, its local solution and rate safety.
func F2() (string, error) {
	g := apps.Fig2()
	rep := analysis.Analyze(g)
	if rep.Err != nil {
		return "", rep.Err
	}
	var b strings.Builder
	b.WriteString("EXP-F2 (Fig. 2, Examples 1-3): TPDF running example\n")
	fmt.Fprintf(&b, "  q = %s (paper: [2, 2p, p, p, 2p, 2p] + sink)\n", rep.Solution.QString())
	fmt.Fprintf(&b, "  schedule: %s\n", rep.Solution.ScheduleString())
	for _, s := range rep.Safety {
		name := g.Nodes[s.Ctrl].Name
		fmt.Fprintf(&b, "  Area(%s) = {%s} (paper: {B,D,E,F})\n", name,
			strings.Join(analysis.Names(g, s.Area.Members), ","))
		if s.Local != nil {
			fmt.Fprintf(&b, "  qG = %s, local solution %s (paper: B^2 C D E^2 F^2 with qG = p)\n",
				s.Local.QG, s.Local.LocalString(g))
		}
		fmt.Fprintf(&b, "  rate safe: %v\n", s.Err == nil)
	}
	fmt.Fprintf(&b, "  bounded: %v\n", rep.Bounded)
	return b.String(), nil
}

// F3 reproduces Fig. 3: virtualizing a Select-duplicate's output choice
// preserves consistency and boundedness.
func F3() (string, error) {
	g, sel, ends, err := buildFig3()
	if err != nil {
		return "", err
	}
	before := analysis.Analyze(g)
	vc, vt, err := g.VirtualizeSelectDuplicate(sel, ends)
	if err != nil {
		return "", err
	}
	after := analysis.Analyze(g)
	var b strings.Builder
	b.WriteString("EXP-F3 (Fig. 3): Select-duplicate virtualization\n")
	fmt.Fprintf(&b, "  before: consistent=%v bounded=%v\n", before.Consistent, before.Bounded)
	fmt.Fprintf(&b, "  added virtual control %q and transaction %q\n",
		g.Nodes[vc].Name, g.Nodes[vt].Name)
	fmt.Fprintf(&b, "  after:  consistent=%v bounded=%v (boundedness preserved: %v)\n",
		after.Consistent, after.Bounded, before.Bounded == after.Bounded)
	return b.String(), nil
}

// buildFig3 constructs the Fig. 3 left-hand graph: A feeds a
// Select-duplicate B whose branches end at D and E.
func buildFig3() (*core.Graph, core.NodeID, []core.NodeID, error) {
	g := core.NewGraph("fig3")
	a := g.AddKernel("A", 1)
	bsel := g.AddSelectDuplicate("B", 1)
	d := g.AddKernel("D", 1)
	e := g.AddKernel("E", 1)
	if _, err := g.Connect(a, "[1]", bsel, "[1]", 0); err != nil {
		return nil, 0, nil, err
	}
	if _, err := g.Connect(bsel, "[1]", d, "[1]", 0); err != nil {
		return nil, 0, nil, err
	}
	if _, err := g.Connect(bsel, "[1]", e, "[1]", 0); err != nil {
		return nil, 0, nil, err
	}
	return g, bsel, []core.NodeID{d, e}, nil
}

// F4 reproduces Fig. 4: liveness by clustering, including the late schedule.
func F4() (string, error) {
	var b strings.Builder
	b.WriteString("EXP-F4 (Fig. 4): liveness by cycle clustering\n")
	for _, c := range []struct {
		name  string
		build func() *core.Graph
		note  string
	}{
		{"4a", apps.Fig4a, "expect live, local (B B C C), clustered A^2 (B B C C)^p"},
		{"4b", apps.Fig4b, "expect live via late schedule (B C C B)"},
		{"deadlocked", apps.Fig4Deadlocked, "expect deadlock"},
	} {
		g := c.build()
		sol, err := analysis.Consistency(g)
		if err != nil {
			return "", err
		}
		rep, err := analysis.Liveness(g, sol)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %s (%s):\n", c.name, c.note)
		for i := range rep.Cycles {
			cyc := &rep.Cycles[i]
			if cyc.Live {
				fmt.Fprintf(&b, "    cycle {%s}: live, local %s, qG = %s\n",
					strings.Join(analysis.Names(g, cyc.Members), ","),
					cyc.LocalString(g), cyc.QG)
			} else {
				fmt.Fprintf(&b, "    cycle {%s}: DEADLOCK\n",
					strings.Join(analysis.Names(g, cyc.Members), ","))
			}
		}
		if rep.Live {
			fmt.Fprintf(&b, "    clustered schedule: %s\n",
				analysis.ClusteredScheduleString(g, sol, rep))
		}
	}
	return b.String(), nil
}

// F5 reproduces Fig. 5: the canonical period of the Fig. 2 graph at p=1,
// list-scheduled with the control actor at highest priority.
func F5() (string, error) {
	prog, prec, err := canonicalPeriod(apps.Fig2(), symb.Env{"p": 1})
	if err != nil {
		return "", err
	}
	cg := prog.Concrete()
	opts := sched.Options{Platform: platform.Simple(4), ControlPriority: true, IsControl: prog.ControlActors()}
	res, err := sched.ListSchedule(cg, prec, opts)
	if err != nil {
		return "", err
	}
	if err := sched.Verify(cg, prec, opts, res); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("EXP-F5 (Fig. 5): canonical period at p=1\n")
	fmt.Fprintf(&b, "  firings: %d (paper shows A1 A2 B1 B2 C1 D1 E1 E2 F1 F2 + sink)\n", prec.N())
	items := make([]trace.GanttItem, 0, len(res.Items))
	for u := range res.Items {
		f := prec.Firings[u]
		items = append(items, trace.GanttItem{
			Lane:  res.Items[u].PE,
			Label: cg.Actors[f.Actor].Name + itoa(f.K+1),
			Start: res.Items[u].Start,
			End:   res.Items[u].End,
		})
	}
	b.WriteString(trace.Gantt(items, 64))
	fmt.Fprintf(&b, "  makespan %d, utilization %.2f\n", res.Makespan, res.Utilization())
	return b.String(), nil
}

// F6Table reproduces the Fig. 6 table: edge-detector execution times. With
// measure=true the four real detectors run on a size×size synthetic scene —
// each internally row-sharded across imaging.Parallelism workers, so the
// measured wall-clock times reflect the parallel pixel kernels; the paper's
// published times are printed alongside.
func F6Table(size int, measure bool) (string, error) {
	var rows [][]string
	im := imaging.Synthetic(size, size, 1)
	for _, d := range imaging.Detectors() {
		measured := "-"
		if measure {
			start := time.Now()
			d.Run(im)
			measured = strconv.FormatFloat(float64(time.Since(start).Microseconds())/1000.0, 'f', 1, 64)
		}
		rows = append(rows, []string{
			d.Name,
			itoa(apps.PaperDetectorTimes[d.Name]),
			measured,
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXP-T6 (Fig. 6 table): edge detector times, %dx%d image\n", size, size)
	b.WriteString(trace.Table(
		[]string{"Method", "Paper ms (i3@2.53GHz)", "Measured ms (this host)"}, rows))
	b.WriteString("  expected shape: QMask < Sobel ≈ Prewitt < Canny\n")
	return b.String(), nil
}

// F6Deadline reproduces the Fig. 6 experiment: the Transaction picks the
// best detector finished at each deadline.
func F6Deadline() (string, error) {
	var rows [][]string
	for _, deadline := range []int64{250, 500, 600, 1200} {
		app := apps.EdgeDetection(deadline, nil)
		res, err := sim.Run(sim.Config{Graph: app.Graph, Decide: app.DeadlineDecide(), Record: true})
		if err != nil {
			return "", err
		}
		chosen := "(none)"
		for _, ev := range res.Events {
			if ev.Node == "Trans" && len(ev.Selected) == 1 {
				chosen = app.DetectorFor(ev.Selected[0])
			}
		}
		rows = append(rows, []string{itoa(deadline), chosen})
	}
	var b strings.Builder
	b.WriteString("EXP-F6 (Fig. 6): deadline-driven selection (clock + transaction)\n")
	b.WriteString(trace.Table([]string{"Deadline (ms)", "Selected"}, rows))
	b.WriteString("  paper's configuration: 500 ms -> best finished method (Sobel)\n")
	return b.String(), nil
}

// F7 reproduces Fig. 7: the OFDM demodulator graph and its full analysis.
func F7() (string, error) {
	g := apps.OFDMTPDF(apps.DefaultOFDM())
	rep := analysis.Analyze(g)
	if rep.Err != nil {
		return "", rep.Err
	}
	var b strings.Builder
	b.WriteString("EXP-F7 (Fig. 7): OFDM demodulator (cognitive radio)\n")
	b.WriteString(rep.String())
	return b.String(), nil
}

// F8 reproduces Fig. 8: minimum buffer size versus vectorization degree for
// N in {512, 1024}, TPDF against the CSDF baseline, with the paper's
// analytic formulas for comparison. The β×N simulation grid is sharded
// across up to parallel workers; the rendered series do not depend on the
// worker count.
func F8(betas []int64, parallel int) (string, error) {
	var b strings.Builder
	b.WriteString("EXP-F8 (Fig. 8): buffer size vs vectorization degree (M=4, L=1)\n")
	var all []buffer.Point
	for _, n := range []int64{512, 1024} {
		points, err := buffer.OFDMSweepParallel(betas, []int64{n}, 4, 1, parallel)
		if err != nil {
			return "", err
		}
		all = append(all, points...)
		series := map[string][]int64{"TPDF": nil, "CSDF": nil, "paperTPDF": nil, "paperCSDF": nil, "forced": nil}
		for _, p := range points {
			series["TPDF"] = append(series["TPDF"], p.TPDF)
			series["CSDF"] = append(series["CSDF"], p.CSDF)
			series["paperTPDF"] = append(series["paperTPDF"], p.PaperTPDF)
			series["paperCSDF"] = append(series["paperCSDF"], p.PaperCSDF)
			series["forced"] = append(series["forced"], p.Forced)
		}
		fmt.Fprintf(&b, "N = %d:\n", n)
		b.WriteString(trace.Series("beta", betas, series,
			[]string{"TPDF", "CSDF", "paperTPDF", "paperCSDF", "forced"}))
	}
	fmt.Fprintf(&b, "mean improvement TPDF vs CSDF: %.1f%% (paper: 29%%)\n",
		100*buffer.MeanImprovement(all))
	return b.String(), nil
}

// Step is one paper artifact: its tpdf-bench name and its generator.
type Step struct {
	Name string
	Run  func() (string, error)
}

// Steps returns every experiment in paper order, configured by opts. It is
// the one name → generator table: Names, Run and All read it, and the tpdf
// facade reads those.
func Steps(opts Options) []Step {
	size := 1024
	betas := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if opts.Quick {
		size = 256
		betas = []int64{10, 30, 50, 70, 100}
	}
	return []Step{
		{"f1", F1}, {"f2", F2}, {"f3", F3}, {"f4", F4}, {"f5", F5},
		{"t6", func() (string, error) { return F6Table(size, opts.Measure) }},
		{"f6", F6Deadline}, {"f7", F7},
		{"f8", func() (string, error) { return F8(betas, opts.Parallel) }},
		{"a1", ScheduleAblation}, {"a2", PlatformSweep}, {"a3", FMRadioComparison},
		{"a4", ADFPruning}, {"a5", AVCQualityThreshold}, {"a6", ThroughputValidation},
		{"a7", PipelinedScheduling}, {"a8", CapacityMinimization},
	}
}

// Names lists the experiments in paper order.
func Names() []string {
	steps := Steps(Options{})
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.Name
	}
	return names
}

// Run regenerates the one named experiment under opts: exactly that
// experiment's section of All(opts).
func Run(name string, opts Options) (string, error) {
	imaging.SetParallelism(opts.Parallel)
	for _, s := range Steps(opts) {
		if s.Name == name {
			return s.Run()
		}
	}
	return "", fmt.Errorf("unknown experiment %q (try %s)", name, strings.Join(Names(), ", "))
}

// All runs every experiment in paper order under the given options.
// With Parallel > 1 the experiments execute concurrently on a bounded
// worker pool (the harness's one fan-out besides F8's grid shard and the
// pixel kernels) and the outputs are joined in paper order: the rendering
// matches a sequential run byte for byte as long as Measure is off. On
// error the outputs preceding the failed experiment are returned.
func All(opts Options) (string, error) {
	imaging.SetParallelism(opts.Parallel)
	steps := Steps(opts)
	outs := make([]string, len(steps))
	errs := make([]error, len(steps))
	pool.Run(len(steps), opts.Parallel, func(i int) error {
		outs[i], errs[i] = steps[i].Run()
		return nil
	})
	var b strings.Builder
	for i := range steps {
		if errs[i] != nil {
			return b.String(), errs[i]
		}
		b.WriteString(outs[i])
		b.WriteByte('\n')
	}
	return b.String(), nil
}
