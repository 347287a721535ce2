package symb

import (
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// Property tests of the symbolic kernel over seeded random values: three
// parameters, total degree <= 4, small rational coefficients, with the zero
// polynomial, constants and single-term values drawn on purpose.

var propVars = []string{"p", "q", "r"}

func randMono(rng *rand.Rand) Mono {
	m := UnitMono
	for d := rng.Intn(5); d > 0; d-- {
		m = m.Mul(MonoVar(propVars[rng.Intn(len(propVars))]))
	}
	return m
}

func randCoef(rng *rand.Rand, integer bool) rat.Rat {
	n := int64(rng.Intn(13) - 6)
	if integer {
		return rat.FromInt(n)
	}
	return rat.New(n, int64(1+rng.Intn(4)))
}

// randPoly draws zero (1 in 8), a constant (1 in 8), a single term (1 in 8)
// or a sum of up to five terms.
func randPoly(rng *rand.Rand, integer bool) Poly {
	switch rng.Intn(8) {
	case 0:
		return ZeroPoly()
	case 1:
		return PolyConst(randCoef(rng, integer))
	case 2:
		return PolyTerm(randCoef(rng, integer), randMono(rng))
	}
	var p Poly
	for n := 1 + rng.Intn(5); n > 0; n-- {
		p = p.Add(PolyTerm(randCoef(rng, integer), randMono(rng)))
	}
	return p
}

// randExpr draws a polynomial-path expression, or (general == true) one
// with a non-constant denominator.
func randExpr(rng *rand.Rand, general bool) Expr {
	num := randPoly(rng, true)
	if !general {
		return FromPoly(num)
	}
	den := randPoly(rng, true)
	for den.Degree() < 1 {
		den = randPoly(rng, true)
	}
	e, err := NewExpr(num, den)
	if err != nil {
		panic(err)
	}
	return e
}

func randEnv(rng *rand.Rand) Env {
	env := Env{}
	for _, v := range propVars {
		env[v] = int64(1 + rng.Intn(5))
	}
	return env
}

func checkCanonical(t *testing.T, what string, p Poly) {
	t.Helper()
	if len(p.terms) == 0 && p.terms != nil {
		t.Fatalf("%s: zero polynomial holds a non-nil slice", what)
	}
	for i, tm := range p.terms {
		if tm.coef.IsZero() {
			t.Fatalf("%s: zero coefficient at term %d of %s", what, i, p)
		}
		if i > 0 && p.terms[i-1].mono.Cmp(tm.mono) <= 0 {
			t.Fatalf("%s: terms %d,%d of %s not strictly descending", what, i-1, i, p)
		}
	}
}

func checkCanonicalExpr(t *testing.T, what string, e Expr) {
	t.Helper()
	checkCanonical(t, what+" num", e.num)
	checkCanonical(t, what+" den", e.den)
	if e.den.IsOne() {
		t.Fatalf("%s: denominator 1 stored explicitly", what)
	}
	for _, p := range []Poly{e.num, e.den} {
		for _, tm := range p.terms {
			if !tm.coef.IsInt() {
				t.Fatalf("%s: fractional coefficient in %s", what, e)
			}
		}
	}
}

func TestPropPolyCanonicalAndRingAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	one := PolyInt(1)
	for i := 0; i < 2000; i++ {
		a, b, c := randPoly(rng, false), randPoly(rng, false), randPoly(rng, false)
		k, m := randCoef(rng, false), randMono(rng)
		for what, p := range map[string]Poly{
			"a": a, "Add": a.Add(b), "Sub": a.Sub(b), "Neg": a.Neg(), "Scale": a.Scale(k),
			"MulTerm": a.MulTerm(k, m), "Mul": a.Mul(b), "GCD": PolyGCD(a, b), "LCM": PolyLCM(a, b),
		} {
			checkCanonical(t, what, p)
		}
		eq := func(law string, x, y Poly) {
			t.Helper()
			if !x.Equal(y) || x.String() != y.String() {
				t.Fatalf("%s fails for a=%s b=%s c=%s: %s vs %s", law, a, b, c, x, y)
			}
		}
		eq("a+b = b+a", a.Add(b), b.Add(a))
		eq("a·b = b·a", a.Mul(b), b.Mul(a))
		eq("(a+b)+c = a+(b+c)", a.Add(b).Add(c), a.Add(b.Add(c)))
		eq("(a·b)·c = a·(b·c)", a.Mul(b).Mul(c), a.Mul(b.Mul(c)))
		eq("a·(b+c) = a·b + a·c", a.Mul(b.Add(c)), a.Mul(b).Add(a.Mul(c)))
		eq("a−a = 0", a.Sub(a), ZeroPoly())
		eq("a−b = a+(−b)", a.Sub(b), a.Add(b.Neg()))
		eq("a·1 = a", a.Mul(one), a)
		eq("a·0 = 0", a.Mul(ZeroPoly()), ZeroPoly())
		eq("a+0 = a", a.Add(ZeroPoly()), a)
		eq("k·m·a = MulTerm", a.Mul(PolyTerm(k, m)), a.MulTerm(k, m))

		if !b.IsZero() {
			q, ok := a.Mul(b).TryDiv(b)
			if !ok {
				t.Fatalf("TryDiv((%s)·(%s), b) not exact", a, b)
			}
			checkCanonical(t, "TryDiv", q)
			eq("(a·b)/b = a", q, a)
		}
		prim, pc, pm := a.Primitive()
		checkCanonical(t, "Primitive", prim)
		eq("a = prim·c·m", prim.MulTerm(pc, pm), a)
		if !a.IsZero() && prim.terms[0].coef.Sign() <= 0 {
			t.Fatalf("Primitive(%s) = %s: leading coefficient not positive", a, prim)
		}
		if av, err := a.Eval(randEnv(rng), 1); err == nil {
			if c, isConst := a.Const(); isConst && !c.Equal(av) {
				t.Fatalf("Const(%s) = %s but it evaluates to %s", a, c, av)
			}
		}
	}
}

// TestPropExprHomomorphism checks that evaluation commutes with every Expr
// operation, on the polynomial path (both denominators 1), on the general
// path (both with a real denominator) and across the two.
func TestPropExprHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	must := func(r rat.Rat, err error) rat.Rat {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	checked := 0
	for i := 0; i < 3000; i++ {
		e, f := randExpr(rng, i%4 >= 2), randExpr(rng, i%2 == 1)
		k := int64(rng.Intn(9) - 4)
		results := map[string]Expr{
			"Add": e.Add(f), "Sub": e.Sub(f), "Mul": e.Mul(f), "Neg": e.Neg(),
			"ScaleInt": e.ScaleInt(k), "SumExprs": SumExprs([]Expr{e, f, e}),
		}
		if !f.IsZero() {
			results["Div"] = e.Div(f)
		}
		for what, r := range results {
			checkCanonicalExpr(t, what, r)
		}
		env := randEnv(rng)
		ev, err1 := e.Eval(env, 1)
		fv, err2 := f.Eval(env, 1)
		if err1 != nil || err2 != nil {
			continue // a denominator vanishes at this valuation
		}
		checked++
		want := map[string]rat.Rat{
			"Add": must(ev.Add(fv)), "Sub": must(ev.Sub(fv)), "Mul": must(ev.Mul(fv)), "Neg": ev.Neg(),
			"ScaleInt": must(ev.Mul(rat.FromInt(k))), "SumExprs": must(must(ev.Add(fv)).Add(ev)),
		}
		if !fv.IsZero() {
			want["Div"] = must(ev.Div(fv))
		}
		for what, w := range want {
			got, err := results[what].Eval(env, 1)
			if err != nil || !got.Equal(w) {
				t.Fatalf("%s(%s, %s) = %s evaluates to %v (%v) at %v, want %s",
					what, e, f, results[what], got, err, env, w)
			}
		}
		if e.Equal(f) != ev.Equal(fv) && e.Equal(f) {
			t.Fatalf("%s Equal %s but they evaluate to %s and %s", e, f, ev, fv)
		}
	}
	if checked < 2000 {
		t.Fatalf("only %d of 3000 cases evaluated", checked)
	}
}

// TestPropEqualIffSameString: the normal form is canonical — two
// expressions are Equal exactly when they render identically — for
// polynomials and for denominators that are a single term, where
// normalize's content cancellation is a complete gcd. (With a multi-term
// denominator PolyGCD is best-effort, so only "same string ⇒ Equal" holds.)
func TestPropEqualIffSameString(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a, b := randPoly(rng, true), randPoly(rng, true)
		d := PolyTerm(rat.FromInt(int64(1+rng.Intn(6))), randMono(rng))
		e, f := FromPoly(a), FromPoly(b)
		if i%2 == 1 {
			e, f = e.Div(FromPoly(d)), f.Div(FromPoly(d))
		}
		// The same two values reached another way: (e+f)−f and (f·d)/d.
		e2 := e.Add(f).Sub(f)
		f2 := f.Mul(FromPoly(d)).Div(FromPoly(d))
		for _, pair := range [][2]Expr{{e, f}, {e, e2}, {f, f2}, {e2, f2}} {
			x, y := pair[0], pair[1]
			if x.Equal(y) != (x.String() == y.String()) {
				t.Fatalf("Equal(%s, %s) = %v but strings same = %v", x, y, x.Equal(y), x.String() == y.String())
			}
		}
		if !e.Equal(e2) || !f.Equal(f2) {
			t.Fatalf("round trips changed the value: %s vs %s, %s vs %s", e, e2, f, f2)
		}
		g := randExpr(rng, true)
		if h := g.Add(e).Sub(e); h.String() == g.String() && !h.Equal(g) {
			t.Fatalf("%s and %s render the same but are not Equal", g, h)
		}
	}
}

func TestPropNormalizeVectorCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		xs := make([]Expr, 2+rng.Intn(4))
		for j := range xs {
			for xs[j].IsZero() {
				xs[j] = randExpr(rng, rng.Intn(3) == 0)
			}
		}
		out, err := NormalizeVector(xs)
		if err != nil {
			t.Fatal(err)
		}
		for j, o := range out {
			checkCanonicalExpr(t, "NormalizeVector", o)
			if !o.isPoly() {
				t.Fatalf("NormalizeVector(%v)[%d] = %s is not a polynomial", xs, j, o)
			}
			// Entries stay proportional: out[j]·xs[0] == out[0]·xs[j].
			if !o.Mul(xs[0]).Equal(out[0].Mul(xs[j])) {
				t.Fatalf("NormalizeVector(%v) = %v changed the ratios", xs, out)
			}
		}
	}
}

// TestConstantExprAllocations: an integer constant is one one-term slice,
// and arithmetic between constants stays on the polynomial path (the
// map-based kernel paid 4 allocations for IntExpr, 18 for Add and 16 for
// ScaleInt).
func TestConstantExprAllocations(t *testing.T) {
	a, b := IntExpr(3), IntExpr(4)
	var sink Expr
	for _, c := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"IntExpr", 2, func() { sink = IntExpr(7) }},
		{"Add", 2, func() { sink = a.Add(b) }},
		{"ScaleInt", 2, func() { sink = a.ScaleInt(5) }},
	} {
		if got := testing.AllocsPerRun(100, c.op); got > c.max {
			t.Errorf("%s on integer constants: %.0f allocs, want <= %.0f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.0f allocs", c.name, got)
		}
	}
	_ = sink
}
