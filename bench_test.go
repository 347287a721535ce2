package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablations and performance benchmarks of the analyses themselves. Run
//
//	go test -bench=. -benchmem
//
// The same artifact generators back cmd/tpdf-bench, which prints the
// regenerated tables/series; here they are exercised under the Go benchmark
// harness so regressions in analysis cost show up as benchmark deltas.

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/imaging"
	"repro/internal/platform"
	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/symb"
)

// BenchmarkFig1CSDFExample regenerates Fig. 1: repetition vector and the
// (a3)^2(a1)^3(a2)^2 schedule of the CSDF example.
func BenchmarkFig1CSDFExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.F1()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "(a3)^2 (a1)^3 (a2)^2") {
			b.Fatal("schedule mismatch")
		}
	}
}

// BenchmarkFig2TPDFExample regenerates Fig. 2 and Examples 1-3: the
// symbolic repetition vector, control area, local solution and rate safety.
func BenchmarkFig2TPDFExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.F2()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "Area(C) = {B,D,E,F}") {
			b.Fatal("area mismatch")
		}
	}
}

// BenchmarkFig3Virtualization regenerates Fig. 3: select-duplicate output
// choice rewritten as a virtual transaction's input choice.
func BenchmarkFig3Virtualization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.F3()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "boundedness preserved: true") {
			b.Fatal("virtualization broke boundedness")
		}
	}
}

// BenchmarkFig4Liveness regenerates Fig. 4: liveness by clustering with the
// late schedule (B C C B).
func BenchmarkFig4Liveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.F4()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(out, "(B C C B)") {
			b.Fatal("late schedule missing")
		}
	}
}

// BenchmarkFig5CanonicalPeriod regenerates Fig. 5: the canonical period of
// the running example at p=1 scheduled with control priority.
func BenchmarkFig5CanonicalPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.F5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6EdgeDetectorTable regenerates the Fig. 6 table by running
// the four real detectors on a 1024×1024 synthetic scene (one sub-benchmark
// per method so per-detector times are reported like the paper's table).
func BenchmarkFig6EdgeDetectorTable(b *testing.B) {
	im := imaging.Synthetic(1024, 1024, 1)
	for _, d := range imaging.Detectors() {
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.Run(im)
			}
		})
	}
}

// BenchmarkFig6DeadlineSelection regenerates the Fig. 6 experiment: the
// transaction choosing the best detector available at the 500 ms deadline.
func BenchmarkFig6DeadlineSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app := apps.EdgeDetection(500, nil)
		res, err := sim.Run(sim.Config{Graph: app.Graph, Decide: app.DeadlineDecide(), Record: true})
		if err != nil {
			b.Fatal(err)
		}
		chosen := ""
		for _, ev := range res.Events {
			if ev.Node == "Trans" && len(ev.Selected) == 1 {
				chosen = app.DetectorFor(ev.Selected[0])
			}
		}
		if chosen != "Sobel" {
			b.Fatalf("selected %q, want Sobel", chosen)
		}
	}
}

// BenchmarkFig7OFDMAnalysis regenerates Fig. 7: the full analysis of the
// OFDM demodulator graph.
func BenchmarkFig7OFDMAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := analysis.Analyze(apps.OFDMTPDF(apps.DefaultOFDM()))
		if rep.Err != nil || !rep.Bounded {
			b.Fatalf("OFDM analysis failed: %v", rep.Err)
		}
	}
}

// BenchmarkFig8BufferSweep regenerates Fig. 8: buffer size versus
// vectorization degree for N in {512, 1024}, TPDF against CSDF. The
// measured totals must match the paper's formulas exactly.
func BenchmarkFig8BufferSweep(b *testing.B) {
	betas := []int64{10, 50, 100}
	for i := 0; i < b.N; i++ {
		points, err := buffer.OFDMSweep(betas, []int64{512, 1024}, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.TPDF != p.PaperTPDF || p.CSDF != p.PaperCSDF {
				b.Fatalf("buffer mismatch at beta=%d N=%d", p.Beta, p.N)
			}
		}
		imp := buffer.MeanImprovement(points)
		if imp < 0.28 || imp > 0.31 {
			b.Fatalf("improvement %.3f not ≈ 29%%", imp)
		}
	}
}

// BenchmarkAblationControlPriority measures the §III-D scheduling rule's
// effect on the Fig. 2 canonical period.
func BenchmarkAblationControlPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ScheduleAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlatformSweep scales the canonical period across MPPA
// slices (1..256 PEs).
func BenchmarkAblationPlatformSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PlatformSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFMRadio compares the StreamIt-style radio with and
// without dynamic band selection.
func BenchmarkAblationFMRadio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FMRadioComparison(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Performance benchmarks of the core machinery. ---

// BenchmarkSymbolicConsistencyFig2 measures the symbolic balance-equation
// solver on the running example.
func BenchmarkSymbolicConsistencyFig2(b *testing.B) {
	b.ReportAllocs()
	g := apps.Fig2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Consistency(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcreteRepetitionVector measures the rational solver on the
// instantiated graph.
func BenchmarkConcreteRepetitionVector(b *testing.B) {
	g := apps.Fig2()
	cg, _, err := g.Instantiate(symb.Env{"p": 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cg.RepetitionVector(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalPeriodP64 measures precedence-graph construction at
// p=64 (the canonical period has ~450 firings).
func BenchmarkCanonicalPeriodP64(b *testing.B) {
	g := apps.Fig2()
	cg, _, err := g.Instantiate(symb.Env{"p": 64})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cg.BuildPrecedence(sol, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListScheduleMPPA measures list scheduling of the p=64 canonical
// period onto 64 MPPA PEs.
func BenchmarkListScheduleMPPA(b *testing.B) {
	g := apps.Fig2()
	cg, _, err := g.Instantiate(symb.Env{"p": 64})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		b.Fatal(err)
	}
	prec, err := cg.BuildPrecedence(sol, true)
	if err != nil {
		b.Fatal(err)
	}
	opts := sched.Options{Platform: platform.MPPA256(), PEs: 64, ControlPriority: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListSchedule(cg, prec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorOFDM measures a full simulator iteration of the OFDM
// demodulator at beta=100, N=1024.
func BenchmarkSimulatorOFDM(b *testing.B) {
	params := apps.OFDMParams{Beta: 100, M: 4, N: 1024, L: 1}
	g := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Graph: g, Env: symb.Env(params.Env()), Decide: decide}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRatOps measures the rational arithmetic under every balance
// equation and repetition vector: an add/mul/div mix over non-trivial
// denominators. Must stay allocation-free (Rat is a value type).
func BenchmarkRatOps(b *testing.B) {
	b.ReportAllocs()
	a := rat.New(7, 12)
	c := rat.New(35, 9)
	var acc rat.Rat
	for i := 0; i < b.N; i++ {
		acc = a.MustAdd(c).MustMul(a).MustAdd(c.Inv().Neg()).MustDiv(c)
	}
	_ = acc
}

// BenchmarkPolyAddMul measures symbolic polynomial arithmetic, the core of
// the symbolic consistency solver (Add and Mul dominate its profile).
func BenchmarkPolyAddMul(b *testing.B) {
	b.ReportAllocs()
	p := symb.PolyVar("p").Scale(rat.New(2, 1)).Add(symb.PolyInt(3))
	q := symb.PolyVar("q").Add(symb.PolyVar("p")).Add(symb.PolyInt(1))
	var acc symb.Poly
	for i := 0; i < b.N; i++ {
		acc = p.Mul(q).Add(p).Sub(q)
	}
	_ = acc
}

// BenchmarkExprSumConstants measures the cycle-rate pattern of the
// consistency solver: a 16-phase integer rate sequence summed through
// SumExprs, every operand a rational function with denominator 1.
func BenchmarkExprSumConstants(b *testing.B) {
	b.ReportAllocs()
	seq := make([]symb.Expr, 16)
	for i := range seq {
		seq[i] = symb.IntExpr(int64(i % 5))
	}
	var acc symb.Expr
	for i := 0; i < b.N; i++ {
		acc = symb.SumExprs(seq)
	}
	_ = acc
}

// BenchmarkAnalyzeOFDM measures the complete §III chain (consistency, rate
// safety, liveness probes) on the Fig. 7 demodulator — what an `analysis`
// op of bench/ and a tpdf-serve admission pay per distinct graph.
func BenchmarkAnalyzeOFDM(b *testing.B) {
	b.ReportAllocs()
	g := apps.OFDMTPDF(apps.OFDMParams{Beta: 10, M: 4, N: 64, L: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := analysis.Analyze(g); rep.Err != nil {
			b.Fatal(rep.Err)
		}
	}
}

// BenchmarkSimReset measures one steady-state Reset+run cycle of a pooled
// simulator on the OFDM demodulator — the unit of work every sweep point
// costs. The tracked invariant is 0 allocs/op: the grid sweeps stay
// allocation-free after each worker's simulator has warmed up.
func BenchmarkSimReset(b *testing.B) {
	params := apps.OFDMParams{Beta: 10, M: 4, N: 64, L: 1}
	g := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(g, params.M)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.NewSimulator(sim.Config{Graph: g, Env: symb.Env(params.Env()), Decide: decide, BuffersOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		b.Fatal(err) // warm the event queue and control rings
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepInstantiate measures one OFDM sweep point through the
// one-shot path a sweep driver used before the compile layer: a fresh
// graph instantiation, repetition-vector solve and simulator per
// valuation. Compare with BenchmarkSweepRebind.
func BenchmarkSweepInstantiate(b *testing.B) {
	params := apps.OFDMParams{Beta: 10, M: 4, N: 64, L: 1}
	g := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(g, params.M)
	if err != nil {
		b.Fatal(err)
	}
	envs := []symb.Env{
		{"beta": 10, "M": 4, "N": 64, "L": 1},
		{"beta": 4, "M": 4, "N": 32, "L": 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.NewSimulator(sim.Config{Graph: g, Env: envs[i%2], Decide: decide, BuffersOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepRebind measures the same alternating sweep points through
// the compile-once fast path: one Program+Simulator pair, rebound in place
// per point. The delta against BenchmarkSweepInstantiate is the per-point
// saving every sweep worker banks; the tracked invariant is 0 allocs/op
// (gated by sim's TestSweepSteadyStateAllocs).
func BenchmarkSweepRebind(b *testing.B) {
	params := apps.OFDMParams{Beta: 10, M: 4, N: 64, L: 1}
	g := apps.OFDMTPDF(params)
	decide, err := apps.OFDMDecide(g, params.M)
	if err != nil {
		b.Fatal(err)
	}
	envs := []symb.Env{
		{"beta": 10, "M": 4, "N": 64, "L": 1},
		{"beta": 4, "M": 4, "N": 32, "L": 1},
	}
	prog, err := core.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := prog.Rebind(envs[0]); err != nil {
		b.Fatal(err)
	}
	s, err := sim.NewSimulatorFromProgram(prog, sim.Config{Decide: decide, BuffersOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, env := range envs { // warm both valuations
		if err := prog.Rebind(env); err != nil {
			b.Fatal(err)
		}
		if err := s.BindProgram(prog); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prog.Rebind(envs[i%2]); err != nil {
			b.Fatal(err)
		}
		if err := s.BindProgram(prog); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOFDMSweepParallel measures the sharded Fig. 8 grid against the
// sequential driver on the same grid (the speedup is the worker scaling on
// this host).
func BenchmarkOFDMSweepParallel(b *testing.B) {
	betas := []int64{10, 30, 50}
	for _, workers := range []int{1, 4} {
		b.Run(map[bool]string{true: "sequential", false: "parallel4"}[workers == 1], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buffer.OFDMSweepParallel(betas, []int64{512}, 4, 1, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPASSConstruction measures sequential-schedule construction on a
// long CSDF chain.
func BenchmarkPASSConstruction(b *testing.B) {
	g := csdf.NewGraph()
	prev := g.AddActor("n0")
	for i := 1; i <= 12; i++ {
		cur := g.AddActor("n" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		g.Connect(prev, []int64{int64(i%3 + 1)}, cur, []int64{int64(i%2 + 1)}, 0)
		prev = cur
	}
	sol, err := g.RepetitionVector()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BuildSchedule(sol, csdf.Eager); err != nil {
			b.Fatal(err)
		}
	}
}

// streamThroughputGraph is the engine transport benchmark chain: a
// consistent multirate pipeline (q = [1, 2, 1, 3]) with a cyclo-static
// phase, matching the stream/multirate workload of tpdf-bench -engine.
func streamThroughputGraph(b *testing.B) *core.Graph {
	b.Helper()
	g := core.NewGraph("throughput")
	src := g.AddKernel("SRC", 1)
	a := g.AddKernel("A", 1)
	bb := g.AddKernel("B", 1)
	snk := g.AddKernel("SNK", 1)
	for _, c := range []struct {
		from core.NodeID
		p    string
		to   core.NodeID
		q    string
	}{
		{src, "[4]", a, "[3,1]"},
		{a, "[2]", bb, "[4]"},
		{bb, "[3]", snk, "[1]"},
	} {
		if _, err := g.Connect(c.from, c.p, c.to, c.q, 0); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// BenchmarkStreamThroughput measures the concurrent engine's transport-
// bound hot path: behaviors only move pre-boxed tokens, so ns/op is ring
// synchronization plus scheduling, and allocs/op must stay flat at the
// per-run setup cost (the warm firing path allocates nothing).
func BenchmarkStreamThroughput(b *testing.B) {
	g := streamThroughputGraph(b)
	behaviors := map[string]runner.Behavior{
		"SRC": func(f *runner.Firing) error {
			f.Out["o0"] = append(f.Out["o0"], 1, 2, 3, 4)
			return nil
		},
		"A": func(f *runner.Firing) error {
			f.Out["o0"] = append(f.Out["o0"], 5, 6)
			return nil
		},
		"B": func(f *runner.Firing) error {
			f.Out["o0"] = append(f.Out["o0"], 7, 8, 9)
			return nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.Config{Graph: g, Behaviors: behaviors, Iterations: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamTokenOnly is the same chain with no behaviors at all:
// pure token movement (discard + nil emission), the floor the transport
// can reach.
func BenchmarkStreamTokenOnly(b *testing.B) {
	g := streamThroughputGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.Config{Graph: g, Iterations: 256}); err != nil {
			b.Fatal(err)
		}
	}
}
