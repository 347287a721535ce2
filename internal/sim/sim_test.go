package sim_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/symb"
)

func pipeline(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph("pipe")
	a := g.AddKernel("A", 1)
	b := g.AddKernel("B", 2)
	c := g.AddKernel("C", 3)
	if _, err := g.Connect(a, "[1]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, "[1]", c, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPipelineOneIteration(t *testing.T) {
	res, err := sim.Run(sim.Config{Graph: pipeline(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Error("run must quiesce")
	}
	if res.Time != 6 {
		t.Errorf("completion time = %d, want 6 (1+2+3 sequential dependencies)", res.Time)
	}
	for i, f := range res.Firings {
		if f != 1 {
			t.Errorf("firings[%d] = %d, want 1", i, f)
		}
	}
	for ei, hw := range res.HighWater {
		if hw != 1 {
			t.Errorf("highwater[%d] = %d, want 1", ei, hw)
		}
	}
	for ei, fin := range res.Final {
		if fin != 0 {
			t.Errorf("final[%d] = %d, want 0 (back to initial state)", ei, fin)
		}
	}
}

func TestMultipleIterations(t *testing.T) {
	res, err := sim.Run(sim.Config{Graph: pipeline(t), Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Firings {
		if f != 5 {
			t.Errorf("firings[%d] = %d, want 5", i, f)
		}
	}
	// Pipelined execution: C is the bottleneck (3 units each, serialized,
	// first start at t=3): completion = 3 + 5*3 = 18.
	if res.Time != 18 {
		t.Errorf("time = %d, want 18", res.Time)
	}
}

func TestProcessorsLimitSerializes(t *testing.T) {
	// Two independent sources, one PE: firings cannot overlap.
	g := core.NewGraph("par")
	a := g.AddKernel("A", 10)
	b := g.AddKernel("B", 10)
	z := g.AddKernel("Z", 0)
	if _, err := g.Connect(a, "[1]", z, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, "[1]", z, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	unlimited, err := sim.Run(sim.Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.Time != 10 {
		t.Errorf("unlimited time = %d, want 10 (A and B in parallel)", unlimited.Time)
	}
	one, err := sim.Run(sim.Config{Graph: g, Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Time != 20 {
		t.Errorf("1-PE time = %d, want 20 (A and B serialized)", one.Time)
	}
}

func TestCSDFPhasedRates(t *testing.T) {
	// a produces [1,0,1]: over one iteration of q_a = 3, b sees 2 tokens.
	g := core.NewGraph("phase")
	a := g.AddKernel("a", 1)
	b := g.AddKernel("b", 1)
	if _, err := g.Connect(a, "[1,0,1]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := g.NodeByName("a")
	bID, _ := g.NodeByName("b")
	if res.Firings[aID] != 3 || res.Firings[bID] != 2 {
		t.Errorf("firings = %v, want a:3 b:2", res.Firings)
	}
}

func TestFig2Simulation(t *testing.T) {
	g := apps.Fig2()
	// F selects the high-priority input (e7 from E) on each firing.
	decide := map[string]sim.DecideFunc{
		"C": func(firing int64) map[string]sim.ControlToken {
			return map[string]sim.ControlToken{
				"c4": {Mode: core.ModeHighestPriority},
			}
		},
	}
	res, err := sim.Run(sim.Config{Graph: g, Env: symb.Env{"p": 2}, Decide: decide, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Error("Fig. 2 run must quiesce")
	}
	// A, B, C, D, E fire their full counts (p=2 minimal vector: q =
	// [1,2,1,1,2,2,2]).
	for _, w := range []struct {
		name string
		want int64
	}{{"A", 1}, {"B", 2}, {"C", 1}, {"D", 1}, {"E", 2}, {"F", 2}} {
		id, _ := g.NodeByName(w.name)
		if res.Firings[id] != w.want {
			t.Errorf("firings[%s] = %d, want %d", w.name, res.Firings[id], w.want)
		}
	}
}

func TestOFDMBufferMatchesPaperFormula(t *testing.T) {
	// EXP-F8 kernel: the simulated high-water total for the TPDF OFDM
	// demodulator must equal the paper's Buff = 3 + β(12N+L), and the CSDF
	// baseline must equal β(17N+L).
	for _, p := range []apps.OFDMParams{
		{Beta: 10, M: 4, N: 512, L: 1},
		{Beta: 40, M: 4, N: 1024, L: 1},
		{Beta: 7, M: 4, N: 256, L: 16},
	} {
		tg := apps.OFDMTPDF(p)
		decide, err := apps.OFDMDecide(tg, p.M)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{Graph: tg, Env: symb.Env(p.Env()), Decide: decide})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.TotalBuffer(), apps.PaperTPDFBuffer(p); got != want {
			t.Errorf("TPDF buffer(β=%d,N=%d) = %d, want paper formula %d", p.Beta, p.N, got, want)
		}
		// QPSK must never fire when QAM is selected.
		qpsk, _ := tg.NodeByName("QPSK")
		if res.Firings[qpsk] != 0 {
			t.Errorf("QPSK fired %d times despite QAM mode", res.Firings[qpsk])
		}

		cg := apps.OFDMCSDF(p)
		cres, err := sim.Run(sim.Config{Graph: cg, Env: symb.Env(p.Env())})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cres.TotalBuffer(), apps.PaperCSDFBuffer(p); got != want {
			t.Errorf("CSDF buffer(β=%d,N=%d) = %d, want paper formula %d", p.Beta, p.N, got, want)
		}
	}
}

func TestOFDMQPSKMode(t *testing.T) {
	p := apps.OFDMParams{Beta: 5, M: 2, N: 128, L: 2}
	g := apps.OFDMTPDF(p)
	decide, err := apps.OFDMDecide(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Graph: g, Env: symb.Env(p.Env()), Decide: decide})
	if err != nil {
		t.Fatal(err)
	}
	qam, _ := g.NodeByName("QAM")
	qpsk, _ := g.NodeByName("QPSK")
	snk, _ := g.NodeByName("SNK")
	if res.Firings[qam] != 0 || res.Firings[qpsk] != 1 || res.Firings[snk] != 1 {
		t.Errorf("firings QAM=%d QPSK=%d SNK=%d, want 0/1/1",
			res.Firings[qam], res.Firings[qpsk], res.Firings[snk])
	}
}

func TestEdgeDetectionDeadline(t *testing.T) {
	// EXP-F6: with the paper's measured times and a 500 ms deadline, the
	// Transaction must pick Sobel — the best method finished by the
	// deadline (Canny 1040 and Prewitt 522 are still running at t=500+ε,
	// Quick Mask 200 is outranked by Sobel 473).
	app := apps.EdgeDetection(500, nil)
	res, err := sim.Run(sim.Config{Graph: app.Graph, Decide: app.DeadlineDecide(), Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var chosen string
	for _, ev := range res.Events {
		if ev.Node == "Trans" {
			if len(ev.Selected) != 1 {
				t.Fatalf("transaction selected %v, want exactly one", ev.Selected)
			}
			chosen = app.DetectorFor(ev.Selected[0])
		}
	}
	if chosen != "Sobel" {
		t.Errorf("selected %q at 500ms deadline, want Sobel", chosen)
	}
	// IWrite received exactly one image.
	iw, _ := app.Graph.NodeByName("IWrite")
	if res.Firings[iw] != 1 {
		t.Errorf("IWrite fired %d times, want 1", res.Firings[iw])
	}
}

func TestEdgeDetectionDeadlineSweep(t *testing.T) {
	// The chosen detector improves as the deadline is relaxed.
	wants := []struct {
		deadline int64
		best     string
	}{
		{250, "QMask"},
		{500, "Sobel"},
		{600, "Prewitt"},
		{1200, "Canny"},
	}
	for _, w := range wants {
		app := apps.EdgeDetection(w.deadline, nil)
		res, err := sim.Run(sim.Config{Graph: app.Graph, Decide: app.DeadlineDecide(), Record: true})
		if err != nil {
			t.Fatalf("deadline %d: %v", w.deadline, err)
		}
		var chosen string
		for _, ev := range res.Events {
			if ev.Node == "Trans" && len(ev.Selected) == 1 {
				chosen = app.DetectorFor(ev.Selected[0])
			}
		}
		if chosen != w.best {
			t.Errorf("deadline %dms: selected %q, want %q", w.deadline, chosen, w.best)
		}
	}
}

func TestClockTicksAtPeriod(t *testing.T) {
	app := apps.EdgeDetection(500, nil)
	res, err := sim.Run(sim.Config{Graph: app.Graph, Decide: app.DeadlineDecide(), Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var clockEnd int64 = -1
	for _, ev := range res.Events {
		if ev.Node == "Clock" {
			clockEnd = ev.End
		}
	}
	if clockEnd != 500 {
		t.Errorf("clock fired at %d, want 500", clockEnd)
	}
	if !res.Quiescent {
		t.Error("must quiesce")
	}
}

func TestRejectedTokensDiscardedWithDebt(t *testing.T) {
	// Both branches produce, transaction picks one; the loser's tokens must
	// be discarded (debt) so the channel drains even though they arrive
	// after the transaction fired.
	g := core.NewGraph("debt")
	fast := g.AddKernel("fast", 1)
	slow := g.AddKernel("slow", 100)
	src := g.AddKernel("src", 0)
	tr := g.AddTransaction("tr", 0)
	clk := g.AddClock("clk", 10)
	z := g.AddKernel("z", 0)
	if _, err := g.Connect(src, "[1]", fast, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "[1]", slow, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	eFast, err := g.ConnectPriority(fast, "[1]", tr, "[1]", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	eSlow, err := g.ConnectPriority(slow, "[1]", tr, "[1]", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(tr, "[1]", z, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	cid, err := g.ConnectControl(clk, "[1]", tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	port := g.Nodes[clk].Ports[g.Edges[cid].SrcPort].Name
	decide := map[string]sim.DecideFunc{
		"clk": func(int64) map[string]sim.ControlToken {
			return map[string]sim.ControlToken{port: {Mode: core.ModeHighestPriority}}
		},
	}
	res, err := sim.Run(sim.Config{Graph: g, Decide: decide})
	if err != nil {
		t.Fatal(err)
	}
	// At t=10 only fast has finished; tr picks it (priority is moot: slow
	// unavailable). slow completes at t=100; its token must be absorbed by
	// the discard debt, leaving the channel empty.
	if res.Final[eSlow] != 0 {
		t.Errorf("slow->tr channel final = %d, want 0 (debt absorbs late token)", res.Final[eSlow])
	}
	if res.Final[eFast] != 0 {
		t.Errorf("fast->tr channel final = %d, want 0", res.Final[eFast])
	}
}

func TestSelectManyMode(t *testing.T) {
	// Select-duplicate producing to two of three outputs.
	g := core.NewGraph("selmany")
	src := g.AddKernel("src", 0)
	dup := g.AddSelectDuplicate("dup", 0)
	con := g.AddControlActor("con", 0)
	a := g.AddKernel("a", 0)
	b := g.AddKernel("b", 0)
	c := g.AddKernel("c", 0)
	if _, err := g.Connect(src, "[1]", dup, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "[1]", con, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, k := range []core.NodeID{a, b, c} {
		eid, err := g.Connect(dup, "[1]", k, "[1]", 0)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, g.Nodes[dup].Ports[g.Edges[eid].SrcPort].Name)
	}
	cid, err := g.ConnectControl(con, "[1]", dup, 0)
	if err != nil {
		t.Fatal(err)
	}
	port := g.Nodes[con].Ports[g.Edges[cid].SrcPort].Name
	decide := map[string]sim.DecideFunc{
		"con": func(int64) map[string]sim.ControlToken {
			return map[string]sim.ControlToken{
				port: {Mode: core.ModeSelectMany, Selected: []string{outs[0], outs[2]}},
			}
		},
	}
	res, err := sim.Run(sim.Config{Graph: g, Decide: decide})
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := g.NodeByName("a")
	bID, _ := g.NodeByName("b")
	cID, _ := g.NodeByName("c")
	if res.Firings[aID] != 1 || res.Firings[bID] != 0 || res.Firings[cID] != 1 {
		t.Errorf("firings a=%d b=%d c=%d, want 1/0/1",
			res.Firings[aID], res.Firings[bID], res.Firings[cID])
	}
}

func TestDeadlockedGraphQuiescesWithoutFiring(t *testing.T) {
	g := apps.Fig4Deadlocked()
	res, err := sim.Run(sim.Config{Graph: g, Env: symb.Env{"p": 1}})
	if err != nil {
		t.Fatal(err)
	}
	bID, _ := g.NodeByName("B")
	cID, _ := g.NodeByName("C")
	if res.Firings[bID] != 0 || res.Firings[cID] != 0 {
		t.Errorf("deadlocked cycle fired: %v", res.Firings)
	}
}

func TestFig4bSimulationCompletes(t *testing.T) {
	g := apps.Fig4b()
	res, err := sim.Run(sim.Config{Graph: g, Env: symb.Env{"p": 3}})
	if err != nil {
		t.Fatal(err)
	}
	// q = [2, 2p, 2p] at p=3 -> [2, 6, 6]; the cycle interleaves correctly.
	want := []int64{2, 6, 6}
	for j, w := range want {
		if res.Firings[j] != w {
			t.Errorf("firings[%d] = %d, want %d", j, res.Firings[j], w)
		}
	}
	for ei, fin := range res.Final {
		if fin != g.Edges[ei].Initial {
			t.Errorf("edge %d final = %d, want initial %d", ei, fin, g.Edges[ei].Initial)
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	g := pipeline(t)
	if _, err := sim.Run(sim.Config{Graph: g, Iterations: 100, MaxEvents: 3}); err == nil {
		t.Error("MaxEvents guard must trip")
	}
}
