package buffer

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/csdf"
	"repro/internal/sim"
	"repro/internal/symb"
)

func TestOFDMPointQPSKMode(t *testing.T) {
	pt, err := OFDMPoint(apps.OFDMParams{Beta: 3, M: 2, N: 32, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The QPSK mode's active topology costs 3 + β(8N+L) (derived
	// symbolically in the analysis tests).
	want := int64(3 + 3*(8*32+1))
	if pt.TPDF != want {
		t.Errorf("QPSK-mode buffer = %d, want %d", pt.TPDF, want)
	}
	// The CSDF baseline is independent of M.
	if pt.CSDF != apps.PaperCSDFBuffer(apps.OFDMParams{Beta: 3, M: 2, N: 32, L: 1}) {
		t.Errorf("CSDF baseline changed with M: %d", pt.CSDF)
	}
}

func TestScheduleBoundsOFDMBaseline(t *testing.T) {
	g, _, err := apps.OFDMCSDF(apps.OFDMParams{Beta: 2, M: 4, N: 16, L: 1}).Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	eager, err := g.BuildSchedule(sol, csdf.Eager)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := g.BuildSchedule(sol, csdf.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if demand.TotalBuffer() > eager.TotalBuffer() {
		t.Errorf("demand %d > eager %d", demand.TotalBuffer(), eager.TotalBuffer())
	}
	// Sequential single-core execution of the chain needs the full
	// per-iteration transfer on every edge: both equal the paper total.
	if eager.TotalBuffer() != 2*(17*16+1) {
		t.Errorf("eager total = %d, want %d", eager.TotalBuffer(), 2*(17*16+1))
	}
}

func TestScheduleBoundsDeadlockPropagates(t *testing.T) {
	g := csdf.NewGraph()
	a := g.AddActor("a")
	b := g.AddActor("b")
	g.Connect(a, []int64{1}, b, []int64{1}, 0)
	g.Connect(b, []int64{1}, a, []int64{1}, 0)
	sol, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []csdf.SchedulePolicy{csdf.Eager, csdf.Demand} {
		if _, err := g.BuildSchedule(sol, policy); err == nil {
			t.Errorf("policy %v: deadlocked graph must propagate an error", policy)
		}
	}
}

func TestMinimalCapacitiesWithModes(t *testing.T) {
	// Bounded-buffer minimization agrees with the unbounded high-water sum
	// on the FM radio with band selection (single-appearance pipeline).
	g := apps.FMRadioTPDF()
	decide, err := apps.FMRadioSelectBand(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Graph: g, Decide: decide}
	ref, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := sim.MinimalCapacities(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var capTotal int64
	for _, c := range caps {
		capTotal += c
	}
	if capTotal > ref.TotalBuffer() {
		t.Errorf("minimized %d exceeds observed %d", capTotal, ref.TotalBuffer())
	}
}

func TestPointImprovementArithmetic(t *testing.T) {
	p := Point{TPDF: 70, CSDF: 100}
	if imp := p.Improvement(); imp != 0.3 {
		t.Errorf("improvement = %g", imp)
	}
}

func TestForcedAblationMatchesFormula(t *testing.T) {
	// Forcing both branches (wait-all) costs 3 + β(15N+L): every edge of
	// the TPDF graph is live but the merge still emits only βMN.
	params := apps.OFDMParams{Beta: 2, M: 4, N: 64, L: 1}
	pt, err := OFDMPoint(params)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 + params.Beta*(15*params.N+params.L)
	if pt.Forced != want {
		t.Errorf("forced = %d, want %d", pt.Forced, want)
	}
}

func TestSymbolicTrafficConsistentWithSim(t *testing.T) {
	// Cross-check: per-edge symbolic traffic evaluated at a concrete env
	// equals the simulator's high-water marks on an always-active pipeline.
	g := apps.OFDMCSDF(apps.OFDMParams{Beta: 5, M: 4, N: 32, L: 2})
	res, err := sim.Run(sim.Config{Graph: g, Env: symb.Env{"beta": 5, "N": 32, "L": 2, "M": 4}})
	if err != nil {
		t.Fatal(err)
	}
	var graphTotal int64
	for _, hw := range res.HighWater {
		graphTotal += hw
	}
	if graphTotal != 5*(17*32+2) {
		t.Errorf("sim total %d != formula %d", graphTotal, 5*(17*32+2))
	}
}
