package buffer

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/csdf"
)

func TestOFDMPointMatchesFormulas(t *testing.T) {
	pt, err := OFDMPoint(apps.OFDMParams{Beta: 10, M: 4, N: 512, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.TPDF != pt.PaperTPDF {
		t.Errorf("measured TPDF %d != paper %d", pt.TPDF, pt.PaperTPDF)
	}
	if pt.CSDF != pt.PaperCSDF {
		t.Errorf("measured CSDF %d != paper %d", pt.CSDF, pt.PaperCSDF)
	}
	// The ablation sits strictly between TPDF and CSDF: forcing both
	// branches costs buffer, but the merge stage still emits only βMN.
	if !(pt.TPDF < pt.Forced && pt.Forced < pt.CSDF) {
		t.Errorf("ablation ordering violated: TPDF %d, forced %d, CSDF %d",
			pt.TPDF, pt.Forced, pt.CSDF)
	}
}

func TestOFDMSweepShape(t *testing.T) {
	betas := []int64{10, 20, 40}
	points, err := OFDMSweep(betas, []int64{512}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// Linear in beta: buffer(2β)−buffer(β) is constant per step of β.
	d1 := points[1].TPDF - points[0].TPDF
	d2 := (points[2].TPDF - points[1].TPDF) / 2
	if d1 != d2 {
		t.Errorf("TPDF curve not linear in β: steps %d vs %d", d1, d2)
	}
	// Improvement ≈ 29.4% (5/17, slightly diluted by L and the +3).
	imp := MeanImprovement(points)
	if imp < 0.28 || imp > 0.31 {
		t.Errorf("mean improvement = %.4f, want ≈ 0.294", imp)
	}
}

func TestSweepNOrdering(t *testing.T) {
	points, err := OFDMSweep([]int64{10}, []int64{512, 1024}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if points[1].TPDF <= points[0].TPDF {
		t.Error("N=1024 curve must sit above N=512")
	}
}

// TestScheduleBounds pins what the engine's ring sizing and the generated
// code rely on: the demand-driven PASS never needs more buffer than the
// eager one.
func TestScheduleBounds(t *testing.T) {
	g := csdf.NewGraph()
	a := g.AddActor("a")
	b := g.AddActor("b")
	c := g.AddActor("c")
	g.Connect(a, []int64{4}, b, []int64{1}, 0)
	g.Connect(b, []int64{1}, c, []int64{1}, 0)
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
		t.Errorf("demand total %d > eager total %d", demand.TotalBuffer(), eager.TotalBuffer())
	}
	if demand.MaxTokens[1] != 1 {
		t.Errorf("demand bound on b->c = %d, want 1", demand.MaxTokens[1])
	}
}

func TestImprovementZeroGuard(t *testing.T) {
	if (Point{}).Improvement() != 0 {
		t.Error("zero CSDF must not divide by zero")
	}
	if MeanImprovement(nil) != 0 {
		t.Error("empty sweep must yield 0")
	}
}
