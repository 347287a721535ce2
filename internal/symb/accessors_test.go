package symb

import (
	"testing"

	"repro/internal/rat"
)

func TestMonoPow(t *testing.T) {
	if !MonoPow("p", 0).IsUnit() {
		t.Error("p^0 must be the unit")
	}
	if MonoPow("p", 3).String() != "p^3" {
		t.Errorf("p^3 = %q", MonoPow("p", 3).String())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative exponent must panic")
		}
	}()
	MonoPow("p", -1)
}

func TestMonoExpAndVars(t *testing.T) {
	m := MonoVar("p").Mul(MonoPow("q", 2))
	if m.Exp("p") != 1 || m.Exp("q") != 2 || m.Exp("r") != 0 {
		t.Errorf("exponents wrong: p=%d q=%d r=%d", m.Exp("p"), m.Exp("q"), m.Exp("r"))
	}
	vars := m.Vars()
	if len(vars) != 2 || vars[0] != "p" || vars[1] != "q" {
		t.Errorf("Vars = %v", vars)
	}
	if m.Degree() != 3 {
		t.Errorf("degree = %d", m.Degree())
	}
}

func TestMonoEvalOverflow(t *testing.T) {
	m := MonoPow("p", 8)
	if _, ok := m.Eval(Env{"p": 1 << 40}, 1); ok {
		t.Error("p^8 at 2^40 must overflow")
	}
	v, ok := m.Eval(Env{"p": 2}, 1)
	if !ok || v != 256 {
		t.Errorf("2^8 = %d, %v", v, ok)
	}
	// Default value path.
	v, ok = m.Eval(nil, 3)
	if !ok || v != 6561 {
		t.Errorf("3^8 = %d, %v", v, ok)
	}
}

func TestEnvCloneAndNames(t *testing.T) {
	e := Env{"b": 2, "a": 1}
	c := e.Clone()
	c["a"] = 99
	if e["a"] != 1 {
		t.Error("Clone must copy")
	}
	names := e.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestRatExprAndNewExpr(t *testing.T) {
	e := FromPoly(PolyConst(rat.New(3, 2)))
	c, ok := e.Const()
	if !ok || !c.Equal(rat.New(3, 2)) {
		t.Errorf("constant 3/2 = %v", e)
	}
	// The numerator keeps integer coefficients and the denominator carries
	// the scale, as for every other constructor (it used to hold 3/2 over 1).
	if e.Num().String() != "3" || e.Den().String() != "2" || e.String() != "3/2" {
		t.Errorf("constant 3/2 = %s over %s", e.Num(), e.Den())
	}
	if h := FromPoly(PolyConst(rat.New(1, 2))); !h.Add(h).IsOne() || h.Add(h).String() != "1" || !h.Equal(IntExpr(1).Div(IntExpr(2))) {
		t.Errorf("1/2 + 1/2 = %s", h.Add(h))
	}
	if i := FromPoly(PolyConst(rat.FromInt(4))); i.String() != "4" || !i.Den().IsOne() {
		t.Errorf("constant 4 = %s over %s", i.Num(), i.Den())
	}
	n, err := NewExpr(PolyVar("p"), PolyInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "p/2" {
		t.Errorf("NewExpr = %q", n.String())
	}
	if _, err := NewExpr(PolyVar("p"), ZeroPoly()); err == nil {
		t.Error("zero denominator must fail")
	}
}

func TestExprNumDenIsPoly(t *testing.T) {
	e := MustParseExpr("p/2")
	if e.Num().String() != "p" || e.Den().String() != "2" {
		t.Errorf("num/den = %s / %s", e.Num(), e.Den())
	}
	if _, ok := e.IsPoly(); ok {
		t.Error("p/2 is not a polynomial")
	}
	p := MustParseExpr("p+1")
	if poly, ok := p.IsPoly(); !ok || poly.Degree() != 1 {
		t.Error("p+1 should be a polynomial")
	}
}

func TestExprVars(t *testing.T) {
	e := MustParseExpr("beta*(N+L)/M")
	vars := e.Vars()
	want := []string{"L", "M", "N", "beta"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestSumExprs(t *testing.T) {
	s := SumExprs([]Expr{IntExpr(1), Var("p"), IntExpr(2)})
	if !s.Equal(MustParseExpr("p+3")) {
		t.Errorf("sum = %s", s)
	}
	if !SumExprs(nil).IsZero() {
		t.Error("empty sum must be zero")
	}
}

func TestExprDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero expression must panic")
		}
	}()
	Var("p").Div(ZeroExpr())
}

func TestPolyAccessors(t *testing.T) {
	p := PolyVar("p").Add(PolyInt(2)).Scale(rat.FromInt(3)) // 3p + 6
	if p.NumTerms() != 2 {
		t.Errorf("terms = %d", p.NumTerms())
	}
	if p.String() != "3*p + 6" {
		t.Errorf("3(p+2) = %s", p)
	}
	if p.IsOne() {
		t.Error("3p+6 is not one")
	}
	if !PolyInt(1).IsOne() {
		t.Error("1 must be one")
	}
	if vars := p.Vars(); len(vars) != 1 || vars[0] != "p" {
		t.Errorf("Vars = %v", vars)
	}
	if ZeroPoly().Degree() != -1 {
		t.Error("zero poly degree must be -1")
	}
}

func TestPolyLCM(t *testing.T) {
	a := PolyTerm(rat.FromInt(2), MonoVar("p"))                   // 2p
	b := PolyTerm(rat.FromInt(3), MonoVar("p").Mul(MonoVar("q"))) // 3pq
	l := PolyLCM(a, b)
	// lcm(2p, 3pq) = 6pq.
	want := PolyTerm(rat.FromInt(6), MonoVar("p").Mul(MonoVar("q")))
	if !l.Equal(want) {
		t.Errorf("lcm = %s, want %s", l, want)
	}
	if !PolyLCM(ZeroPoly(), a).IsZero() {
		t.Error("lcm with zero must be zero")
	}
}

func TestGCDExprWithZero(t *testing.T) {
	p := Var("p")
	if !GCDExpr(ZeroExpr(), p).Equal(p) {
		t.Error("gcd(0, p) = p")
	}
	if !GCDExpr(p, ZeroExpr()).Equal(p) {
		t.Error("gcd(p, 0) = p")
	}
}

func TestNormalizeVectorRejectsZeroEntry(t *testing.T) {
	if _, err := NormalizeVector([]Expr{Var("p"), ZeroExpr()}); err == nil {
		t.Error("zero entry must be rejected")
	}
	out, err := NormalizeVector(nil)
	if err != nil || out != nil {
		t.Error("empty vector is trivially normalized")
	}
}
