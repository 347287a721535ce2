package analysis

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/symb"
)

// TestFig8FormulasDerivedSymbolically is the strongest form of the Fig. 8
// reproduction: the paper's closed-form buffer formulas fall out of the
// graphs as symbolic expressions, for all parameter values at once.
func TestFig8FormulasDerivedSymbolically(t *testing.T) {
	// TPDF with the QAM branch active (M = 4): 3 + β(12N + L).
	tg := apps.OFDMTPDF(apps.DefaultOFDM())
	sol, err := Consistency(tg)
	if err != nil {
		t.Fatal(err)
	}
	active, err := OFDMActiveEdges(tg, "QAM")
	if err != nil {
		t.Fatal(err)
	}
	got := SymbolicBufferBound(tg, sol, active)
	// The graph's merge stage emits beta*M*N; with QAM selected M = 4.
	want := symb.MustParseExpr("3 + beta*(12*N + L)")
	if !equalAtM(t, got, want, 4) {
		t.Errorf("TPDF bound = %s, want %s at M=4", got, want)
	}

	// CSDF baseline: β(17N + L).
	cg := apps.OFDMCSDF(apps.DefaultOFDM())
	csol, err := Consistency(cg)
	if err != nil {
		t.Fatal(err)
	}
	cGot := SymbolicBufferBound(cg, csol, nil)
	cWant := symb.MustParseExpr("beta*(17*N + L)")
	if !cGot.Equal(cWant) {
		t.Errorf("CSDF bound = %s, want %s", cGot, cWant)
	}
}

// equalAtM reports whether got, with the parameter M fixed to m, is the
// polynomial want: both have degree 1 in each of beta, N and L, so agreeing
// on a 3×3×3 grid of distinct values makes them identical.
func equalAtM(t *testing.T, got, want symb.Expr, m int64) bool {
	t.Helper()
	for _, beta := range []int64{1, 2, 7} {
		for _, n := range []int64{1, 5, 64} {
			for _, l := range []int64{1, 3, 9} {
				env := symb.Env{"beta": beta, "N": n, "L": l, "M": m}
				g, err := got.Eval(env, 1)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.Eval(env, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(w) {
					return false
				}
			}
		}
	}
	return true
}

func TestSymbolicBoundQPSKBranch(t *testing.T) {
	// QPSK active (M = 2): 3 + β((N+L) + N + N + N + 2N + 2N) = 3 + β(8N+L)
	// — the paper only plots the QAM configuration; this is the other mode.
	g := apps.OFDMTPDF(apps.DefaultOFDM())
	sol, err := Consistency(g)
	if err != nil {
		t.Fatal(err)
	}
	active, err := OFDMActiveEdges(g, "QPSK")
	if err != nil {
		t.Fatal(err)
	}
	got := SymbolicBufferBound(g, sol, active)
	want := symb.MustParseExpr("3 + beta*(8*N + L)")
	if !equalAtM(t, got, want, 2) {
		t.Errorf("QPSK bound = %s, want %s at M=2", got, want)
	}
}

func TestEdgeTrafficFig2(t *testing.T) {
	g := apps.Fig2()
	sol, err := Consistency(g)
	if err != nil {
		t.Fatal(err)
	}
	traffic := EdgeTraffic(g, sol)
	// e1 carries 2p tokens per iteration (A fires twice producing p each).
	if !traffic[0].Equal(symb.MustParseExpr("2p")) {
		t.Errorf("e1 traffic = %s, want 2p", traffic[0])
	}
	// The control channel e5 carries 2p tokens (C fires p times at rate 2).
	if !traffic[4].Equal(symb.MustParseExpr("2p")) {
		t.Errorf("e5 traffic = %s, want 2p", traffic[4])
	}
}

func TestOFDMActiveEdgesValidation(t *testing.T) {
	g := apps.OFDMTPDF(apps.DefaultOFDM())
	if _, err := OFDMActiveEdges(g, "PAM"); err == nil {
		t.Error("unknown branch must fail")
	}
	if _, err := OFDMActiveEdges(apps.Fig2(), "QAM"); err == nil {
		t.Error("graph without the branch must fail")
	}
}
