package symb

import (
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

func TestMonoMulDiv(t *testing.T) {
	p := MonoVar("p")
	q := MonoVar("q")
	pq := p.Mul(q)
	if pq.String() != "p*q" {
		t.Errorf("p*q = %q", pq.String())
	}
	p2q := p.Mul(pq)
	if p2q.String() != "p^2*q" {
		t.Errorf("p^2*q = %q", p2q.String())
	}
	d, ok := p2q.Div(p)
	if !ok || !d.Equal(pq) {
		t.Errorf("p^2*q / p = %v, %v", d, ok)
	}
	if _, ok := p.Div(q); ok {
		t.Error("p / q should not be exact")
	}
	if _, ok := p.Div(p.Mul(p)); ok {
		t.Error("p / p^2 should not be exact")
	}
	u, ok := p.Div(p)
	if !ok || !u.IsUnit() {
		t.Errorf("p/p = %v, %v; want unit", u, ok)
	}
}

func TestMonoGCDLCM(t *testing.T) {
	a := MonoVar("p").Mul(MonoVar("p")).Mul(MonoVar("q")) // p^2 q
	b := MonoVar("p").Mul(MonoVar("r"))                   // p r
	g := a.GCD(b)
	if g.String() != "p" {
		t.Errorf("gcd = %q, want p", g.String())
	}
}

func TestMonoCmpTotalOrder(t *testing.T) {
	p := MonoVar("p")
	q := MonoVar("q")
	if p.Cmp(q) <= 0 {
		t.Error("p should sort above q in lex order (earlier name larger)")
	}
	if p.Cmp(p.Mul(q)) >= 0 {
		t.Error("degree dominates: p < p*q")
	}
	if UnitMono.Cmp(p) >= 0 {
		t.Error("1 < p")
	}
	if p.Cmp(p) != 0 {
		t.Error("p == p")
	}
}

func TestPolyBasics(t *testing.T) {
	p := PolyVar("p")
	two := PolyInt(2)
	sum := p.Add(two) // p + 2
	if sum.String() != "p + 2" {
		t.Errorf("p+2 = %q", sum.String())
	}
	if sum.Degree() != 1 {
		t.Errorf("degree = %d", sum.Degree())
	}
	sq := sum.Mul(sum) // p^2 + 4p + 4
	want := PolyVar("p").Mul(PolyVar("p")).Add(PolyVar("p").Scale(rat.FromInt(4))).Add(PolyInt(4))
	if !sq.Equal(want) {
		t.Errorf("(p+2)^2 = %s, want %s", sq, want)
	}
	if d := sq.Sub(sq); !d.IsZero() {
		t.Errorf("x - x = %s", d)
	}
}

func TestPolyTryDiv(t *testing.T) {
	p := PolyVar("p")
	q := PolyVar("q")
	num := p.Mul(p).Sub(q.Mul(q)) // p^2 - q^2
	den := p.Add(q)               // p + q
	quo, ok := num.TryDiv(den)    // p - q
	if !ok || !quo.Equal(p.Sub(q)) {
		t.Errorf("(p^2-q^2)/(p+q) = %v, %v", quo, ok)
	}
	if _, ok := num.TryDiv(p.Add(PolyInt(1))); ok {
		t.Error("p^2-q^2 should not be divisible by p+1")
	}
	// Division by constant.
	c, ok := p.Scale(rat.FromInt(6)).TryDiv(PolyInt(3))
	if !ok || !c.Equal(p.Scale(rat.FromInt(2))) {
		t.Errorf("6p/3 = %v, %v", c, ok)
	}
	// Zero dividend.
	z, ok := ZeroPoly().TryDiv(den)
	if !ok || !z.IsZero() {
		t.Errorf("0/(p+q) = %v, %v", z, ok)
	}
	// Division by zero fails.
	if _, ok := p.TryDiv(ZeroPoly()); ok {
		t.Error("division by zero polynomial should fail")
	}
}

func TestPolyPrimitive(t *testing.T) {
	// 6p^2q + 4pq = 2pq (3p + 2)
	p := PolyVar("p")
	q := PolyVar("q")
	poly := p.Mul(p).Mul(q).Scale(rat.FromInt(6)).Add(p.Mul(q).Scale(rat.FromInt(4)))
	prim, c, m := poly.Primitive()
	if !c.Equal(rat.FromInt(2)) {
		t.Errorf("content = %v, want 2", c)
	}
	if m.String() != "p*q" {
		t.Errorf("content mono = %q, want p*q", m.String())
	}
	want := p.Scale(rat.FromInt(3)).Add(PolyInt(2))
	if !prim.Equal(want) {
		t.Errorf("primitive = %s, want %s", prim, want)
	}
	// Negative leading coefficient: sign goes to content.
	neg := p.Scale(rat.FromInt(-2))
	prim2, c2, _ := neg.Primitive()
	if c2.Sign() >= 0 {
		t.Errorf("content sign = %v, want negative", c2)
	}
	if prim2.terms[0].coef.Sign() <= 0 {
		t.Error("primitive leading coefficient should be positive")
	}
}

func TestPolyEval(t *testing.T) {
	// 2p^2 + q at p=3, q=4 -> 22
	p := PolyVar("p").Mul(PolyVar("p")).Scale(rat.FromInt(2)).Add(PolyVar("q"))
	v, err := p.Eval(Env{"p": 3, "q": 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(rat.FromInt(22)) {
		t.Errorf("eval = %v, want 22", v)
	}
	// Missing parameter defaults.
	v2, err := p.Eval(Env{"p": 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Equal(rat.FromInt(19)) {
		t.Errorf("eval with default = %v, want 19", v2)
	}
}

func TestExprNormalization(t *testing.T) {
	p := Var("p")
	// p/p == 1
	if q := p.Div(p); !q.IsOne() {
		t.Errorf("p/p = %s", q)
	}
	// 2p/4 == p/2
	e := p.ScaleInt(2).Div(IntExpr(4))
	if e.String() != "p/2" {
		t.Errorf("2p/4 = %q, want p/2", e)
	}
	// (p^2-1)/(p+1) == p-1 (exact polynomial quotient)
	num := p.Mul(p).Sub(OneExpr())
	den := p.Add(OneExpr())
	q := num.Div(den)
	if !q.Equal(p.Sub(OneExpr())) {
		t.Errorf("(p^2-1)/(p+1) = %s", q)
	}
	// beta(N+L) / beta(N+L) == 1 (the OFDM rate cancellation)
	r := MustParseExpr("beta*(N+L)")
	if v := r.Div(r); !v.IsOne() {
		t.Errorf("beta(N+L)/beta(N+L) = %s", v)
	}
}

func TestExprArithmetic(t *testing.T) {
	p := Var("p")
	half := p.Div(IntExpr(2))
	if s := half.Add(half); !s.Equal(p) {
		t.Errorf("p/2+p/2 = %s", s)
	}
	if d := p.Sub(p); !d.IsZero() {
		t.Errorf("p-p = %s", d)
	}
	if m := half.Mul(IntExpr(2)); !m.Equal(p) {
		t.Errorf("(p/2)*2 = %s", m)
	}
	if i := half.Inv().Mul(half); !i.IsOne() {
		t.Errorf("(2/p)*(p/2) = %s", i)
	}
}

func TestExprEval(t *testing.T) {
	e := MustParseExpr("beta*(N+L)")
	v, err := e.EvalInt(Env{"beta": 10, "N": 512, "L": 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5130 {
		t.Errorf("beta(N+L) = %d, want 5130", v)
	}
	if _, err := MustParseExpr("p/2").EvalInt(Env{"p": 3}, 1); err == nil {
		t.Error("3/2 should not be an integer")
	}
	if _, err := MustParseExpr("1/(p-1)").Eval(Env{"p": 1}, 1); err == nil {
		t.Error("division by zero should error")
	}
}

func TestExprZeroValue(t *testing.T) {
	var e Expr
	if !e.IsZero() {
		t.Error("zero value should be zero")
	}
	if s := e.Add(OneExpr()); !s.IsOne() {
		t.Errorf("0+1 = %s", s)
	}
	if e.String() != "0" {
		t.Errorf("zero renders as %q", e.String())
	}
}

func TestParseExpr(t *testing.T) {
	cases := []struct {
		in   string
		env  Env
		want int64
	}{
		{"2*p", Env{"p": 5}, 10},
		{"2p", Env{"p": 5}, 10},
		{"p+q", Env{"p": 1, "q": 2}, 3},
		{"p-q", Env{"p": 5, "q": 2}, 3},
		{"-p+6", Env{"p": 2}, 4},
		{"p^2", Env{"p": 3}, 9},
		{"beta(N+L)", Env{"beta": 2, "N": 3, "L": 4}, 14},
		{"beta*M*N", Env{"beta": 2, "M": 3, "N": 4}, 24},
		{"(p+1)*(p-1)", Env{"p": 4}, 15},
		{"12", nil, 12},
		{"2^3", nil, 8},
		{"6/3", nil, 2},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.in)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.in, err)
			continue
		}
		got, err := e.EvalInt(c.env, 1)
		if err != nil {
			t.Errorf("eval %q: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, in := range []string{"", "(p", "p+", "2^p", "p ^", ")", "p$q", "1/0"} {
		if _, err := ParseExpr(in); err == nil {
			t.Errorf("ParseExpr(%q) should fail", in)
		}
	}
}

func TestGCDExpr(t *testing.T) {
	p := Var("p")
	two := IntExpr(2)
	g := GCDExpr(p.ScaleInt(2), p) // gcd(2p, p) = p
	if !g.Equal(p) {
		t.Errorf("gcd(2p,p) = %s, want p", g)
	}
	g2 := GCDExpr(two.Mul(p), IntExpr(4).Mul(p).Mul(p)) // gcd(2p, 4p^2) = 2p
	if !g2.Equal(p.ScaleInt(2)) {
		t.Errorf("gcd(2p,4p^2) = %s, want 2p", g2)
	}
	// The Fig. 2 local-solution gcd: gcd(2p, p, 2p, p) = p.
	g3 := GCDExprs([]Expr{p.ScaleInt(2), p, p.ScaleInt(2), p})
	if !g3.Equal(p) {
		t.Errorf("gcd(2p,p,2p,p) = %s, want p", g3)
	}
}

func TestNormalizeVectorFig2(t *testing.T) {
	// Paper Example 2: r = [1, p, p/2, p/2, p, p/2] normalizes to
	// [2, 2p, p, p, 2p, p].
	p := Var("p")
	in := []Expr{OneExpr(), p, p.Div(IntExpr(2)), p.Div(IntExpr(2)), p, p.Div(IntExpr(2))}
	out, err := NormalizeVector(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Expr{IntExpr(2), p.ScaleInt(2), p, p, p.ScaleInt(2), p}
	for i := range want {
		if !out[i].Equal(want[i]) {
			t.Errorf("out[%d] = %s, want %s", i, out[i], want[i])
		}
	}
}

func TestNormalizeVectorCommonFactor(t *testing.T) {
	// [2p, 4p] -> [1, 2]: common content 2 and monomial p are both removed.
	p := Var("p")
	out, err := NormalizeVector([]Expr{p.ScaleInt(2), p.ScaleInt(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].IsOne() || !out[1].Equal(IntExpr(2)) {
		t.Errorf("normalize [2p,4p] = [%s, %s], want [1, 2]", out[0], out[1])
	}
}

func TestNormalizeVectorConstant(t *testing.T) {
	// [3, 2, 2] stays as is (Fig. 1 repetition vector is already integral).
	out, err := NormalizeVector([]Expr{IntExpr(3), IntExpr(2), IntExpr(2)})
	if err != nil {
		t.Fatal(err)
	}
	wants := []int64{3, 2, 2}
	for i, w := range wants {
		if v, _ := out[i].Int(); v != w {
			t.Errorf("out[%d] = %s, want %d", i, out[i], w)
		}
	}
}

func TestQuickExprAddSubRoundTrip(t *testing.T) {
	f := func(a, b int16, usePA, usePB bool) bool {
		x := IntExpr(int64(a))
		if usePA {
			x = x.Mul(Var("p"))
		}
		y := IntExpr(int64(b))
		if usePB {
			y = y.Mul(Var("q"))
		}
		return x.Add(y).Sub(y).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExprMulDivRoundTrip(t *testing.T) {
	f := func(a, b int16, pExp, qExp uint8) bool {
		if a == 0 || b == 0 {
			return true
		}
		x := IntExpr(int64(a))
		for i := 0; i < int(pExp%3); i++ {
			x = x.Mul(Var("p"))
		}
		y := IntExpr(int64(b))
		for i := 0; i < int(qExp%3); i++ {
			y = y.Mul(Var("q"))
		}
		return x.Mul(y).Div(y).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEvalHomomorphism(t *testing.T) {
	// Eval(x*y) == Eval(x)*Eval(y) and Eval(x+y) == Eval(x)+Eval(y).
	f := func(a, b int8, p, q int8) bool {
		x := IntExpr(int64(a)).Mul(Var("p"))
		y := IntExpr(int64(b)).Add(Var("q"))
		env := Env{"p": int64(p), "q": int64(q)}
		xv, err1 := x.Eval(env, 1)
		yv, err2 := y.Eval(env, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		mv, err := x.Mul(y).Eval(env, 1)
		if err != nil || !mv.Equal(xv.MustMul(yv)) {
			return false
		}
		sv, err := x.Add(y).Eval(env, 1)
		return err == nil && sv.Equal(xv.MustAdd(yv))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(a int8, pExp uint8) bool {
		x := IntExpr(int64(a)).Mul(Var("p"))
		for i := 0; i < int(pExp%2); i++ {
			x = x.Mul(Var("q")).Add(IntExpr(3))
		}
		parsed, err := ParseExpr(x.String())
		return err == nil && parsed.Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
