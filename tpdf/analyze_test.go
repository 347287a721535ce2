package tpdf_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rat"
	"repro/tpdf"
)

// TestAnalyzeCoefficientOverflowIsAnError: a graph Parse and Compile both
// accept, whose balance equations overflow int64 coefficients, used to
// panic out of Analyze ("rat: int64 overflow"). It is a fatal analysis
// error now; an overflowing literal product is a parse error.
func TestAnalyzeCoefficientOverflowIsAnError(t *testing.T) {
	g, err := tpdf.Parse(`graph ovf {
  param p = 1 range 1..2;
  kernel A exec 1;
  kernel B exec 1;
  kernel C exec 1;
  kernel D exec 1;
  edge e1: A [4000000007*p] -> [1] B;
  edge e2: B [4000000009] -> [1] C;
  edge e3: C [4000000011*p] -> [1] D;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpdf.Compile(g); err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep := tpdf.Analyze(g)
	if !errors.Is(rep.Err, rat.ErrOverflow) {
		t.Fatalf("Report.Err = %v, want it to wrap rat.ErrOverflow", rep.Err)
	}
	if rep.Bounded || !strings.Contains(rep.String(), "FATAL") {
		t.Errorf("bounded=%v, report:\n%s", rep.Bounded, rep)
	}

	_, err = tpdf.Parse(`graph lit {
  kernel A exec 1;
  kernel B exec 1;
  edge e1: A [4000000007*4000000009*4000000011] -> [1] B;
}`)
	if err == nil || !strings.Contains(err.Error(), rat.ErrOverflow.Error()) {
		t.Fatalf("Parse of an overflowing literal product: %v, want an overflow error", err)
	}
}

// TestAnalyzeAllocationCeilings keeps the static analysis off the
// allocator. Ceilings are ≈ 1.25 × the figure measured after symb.Poly
// became a term slice (345 and 415); the map-based kernel before it
// measured 5,199 (ofdm) and 4,010 (fig2) allocations per Analyze.
func TestAnalyzeAllocationCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		ceiling float64
	}{{"ofdm", 430}, {"fig2", 520}} {
		g, err := tpdf.Builtin(c.name)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if rep := tpdf.Analyze(g); rep.Err != nil {
				t.Fatal(rep.Err)
			}
		})
		t.Logf("tpdf.Analyze(%s): %.0f allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("tpdf.Analyze(%s) = %.0f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
