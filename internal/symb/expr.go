package symb

import (
	"fmt"

	"repro/internal/rat"
)

// Expr is a rational function Num/Den of integer parameters. It is the value
// type for parametric dataflow rates and for symbolic repetition-vector
// entries. The zero value is the expression 0.
//
// Exprs are normalized on construction: the denominator is never zero, an
// exact polynomial quotient is taken when possible, common monomial and
// rational content is cancelled, the denominator's leading coefficient is
// positive, and numerator and denominator keep integer coefficients (a
// fractional scale lives in the denominator: p/2, not (1/2)·p). A
// denominator of 1 is stored as the zero Poly; every rate of every shipped
// and generated graph is such a polynomial.
//
// Between two polynomials Add, Sub, Mul, ScaleInt, SumExprs and Equal work
// on the numerators alone and restore the invariant with the
// integer-content rule (polyExpr); anything with a real denominator goes
// through normalize, the one general path. Exprs are immutable like Polys.
type Expr struct {
	num Poly
	den Poly // zero Poly means 1
}

// ZeroExpr returns the expression 0.
func ZeroExpr() Expr { return Expr{} }

// OneExpr returns the expression 1.
func OneExpr() Expr { return IntExpr(1) }

// IntExpr returns the constant expression n.
func IntExpr(n int64) Expr { return Expr{num: PolyInt(n)} }

// Var returns the expression consisting of the single parameter name.
func Var(name string) Expr { return Expr{num: PolyVar(name)} }

// FromPoly returns the expression p/1.
func FromPoly(p Poly) Expr { return polyExpr(p) }

// NewExpr returns the normalized rational function num/den.
// It returns an error if den is the zero polynomial.
func NewExpr(num, den Poly) (Expr, error) {
	if den.IsZero() {
		return Expr{}, fmt.Errorf("symb: zero denominator")
	}
	return normalize(num, den), nil
}

// polyExpr returns the expression p/1 under the integer-content rule: a
// polynomial with integer coefficients is its own numerator; fractional
// coefficients (e.g. (1/2)·p) are scaled by the LCM k of their denominators
// so the numerator keeps integer coefficients and the denominator carries
// the scale (p/2).
func polyExpr(p Poly) Expr {
	k := p.ContentRat().Den()
	if k == 1 {
		return Expr{num: p}
	}
	kr := rat.FromInt(k)
	return Expr{num: p.Scale(kr), den: PolyConst(kr)}
}

// normalize is the general constructor: num/den for any nonzero den.
func normalize(num, den Poly) Expr {
	if num.IsZero() {
		return Expr{}
	}
	// Exact quotient if possible. The quotient may have fractional
	// coefficients (e.g. 2p/4 -> (1/2)p), which polyExpr re-splits.
	if q, ok := num.TryDiv(den); ok {
		return polyExpr(q)
	}
	// Cancel common monomial and rational content.
	np, nc, nm := num.Primitive()
	dp, dc, dm := den.Primitive()
	gm := nm.GCD(dm)
	nmq, _ := nm.Div(gm)
	dmq, _ := dm.Div(gm)
	// Only the scalar c = nc/dc may be fractional (the primitive parts have
	// integer coprime coefficients); split it across the two sides so both
	// keep integer coefficients and the denominator stays positive-led.
	c := nc.MustDiv(dc)
	num = np.MulTerm(rat.FromInt(c.Num()), nmq)
	den = dp.MulTerm(rat.FromInt(c.Den()), dmq)
	// Final content pass to keep the pair primitive overall.
	ncont := num.ContentRat()
	dcont := den.ContentRat()
	g, err := rat.GCDRat(ncont, dcont)
	if err == nil && !g.IsZero() && !g.Equal(rat.One) {
		num = num.Scale(g.Inv())
		den = den.Scale(g.Inv())
	}
	return Expr{num: num, den: den} // den is not constant: TryDiv failed
}

// Num returns the numerator polynomial.
func (e Expr) Num() Poly { return e.num }

// Den returns the denominator polynomial.
func (e Expr) Den() Poly {
	if e.isPoly() {
		return PolyInt(1)
	}
	return e.den
}

// isPoly reports whether the denominator is 1.
func (e Expr) isPoly() bool { return e.den.IsZero() }

// IsZero reports whether e == 0.
func (e Expr) IsZero() bool { return e.num.IsZero() }

// IsOne reports whether e == 1.
func (e Expr) IsOne() bool {
	c, ok := e.Const()
	return ok && c.Equal(rat.One)
}

// Const returns the constant value of e if e has no parameters.
func (e Expr) Const() (rat.Rat, bool) {
	nc, ok := e.num.Const()
	if !ok || e.isPoly() {
		return nc, ok
	}
	dc, ok := e.den.Const()
	if !ok {
		return rat.Rat{}, false
	}
	return nc.MustDiv(dc), true
}

// Int returns the value of e as an int64 when e is a constant integer.
func (e Expr) Int() (int64, bool) {
	c, ok := e.Const()
	if !ok {
		return 0, false
	}
	return c.Int()
}

// IsPoly reports whether the denominator is 1, returning the numerator.
func (e Expr) IsPoly() (Poly, bool) {
	if e.isPoly() {
		return e.num, true
	}
	return Poly{}, false
}

// Vars returns the sorted parameter names in e.
func (e Expr) Vars() []string {
	out := e.num.Vars()
	for _, t := range e.den.terms {
		out = mergeNames(out, t.mono.vars)
	}
	return out
}

// Add returns e + f.
func (e Expr) Add(f Expr) Expr {
	if e.isPoly() && f.isPoly() {
		return polyExpr(e.num.Add(f.num))
	}
	return normalize(e.num.Mul(f.Den()).Add(f.num.Mul(e.Den())), e.Den().Mul(f.Den()))
}

// Sub returns e - f.
func (e Expr) Sub(f Expr) Expr {
	if e.isPoly() && f.isPoly() {
		return polyExpr(e.num.Sub(f.num))
	}
	return e.Add(f.Neg())
}

// Neg returns -e.
func (e Expr) Neg() Expr { return Expr{num: e.num.Neg(), den: e.den} }

// Mul returns e * f.
func (e Expr) Mul(f Expr) Expr {
	if e.isPoly() && f.isPoly() {
		return polyExpr(e.num.Mul(f.num))
	}
	return normalize(e.num.Mul(f.num), e.Den().Mul(f.Den()))
}

// Div returns e / f. It panics if f is zero (rates are validated nonzero
// before any division in the analyses).
func (e Expr) Div(f Expr) Expr {
	if f.IsZero() {
		panic("symb: division by zero expression")
	}
	num, den := e.num, f.num
	if !f.isPoly() {
		num = num.Mul(f.den)
	}
	if !e.isPoly() {
		den = den.Mul(e.den)
	}
	return normalize(num, den)
}

// Inv returns 1/e. It panics if e is zero.
func (e Expr) Inv() Expr { return OneExpr().Div(e) }

// ScaleInt returns n * e.
func (e Expr) ScaleInt(n int64) Expr {
	num := e.num.Scale(rat.FromInt(n))
	if e.isPoly() {
		return polyExpr(num)
	}
	return normalize(num, e.den)
}

// Equal reports e == f (by cross multiplication when either side has a
// denominator, so representation differences cannot cause false negatives).
func (e Expr) Equal(f Expr) bool {
	if e.isPoly() && f.isPoly() {
		return e.num.Equal(f.num)
	}
	return e.num.Mul(f.Den()).Equal(f.num.Mul(e.Den()))
}

// Eval evaluates e in env; parameters missing from env default to
// defaultVal. It reports an error on overflow or a zero denominator.
//
// This map-based evaluator is the reference one: it sits under
// core.Graph.Instantiate, the oracle the compiled evaluator (Compile,
// CompiledExpr.EvalInto — what every repeated evaluation in product code
// runs) is checked against, and otherwise serves one-shot evaluations
// (Validate's probes, a buffer bound) where compiling first would be more
// code and more allocations.
func (e Expr) Eval(env Env, defaultVal int64) (rat.Rat, error) {
	nv, err := e.num.Eval(env, defaultVal)
	if err != nil || e.isPoly() {
		return nv, err
	}
	dv, err := e.den.Eval(env, defaultVal)
	if err != nil {
		return rat.Rat{}, err
	}
	if dv.IsZero() {
		return rat.Rat{}, fmt.Errorf("symb: denominator %s evaluates to zero", e.den)
	}
	return nv.Div(dv)
}

// EvalInt evaluates e and requires an integer result.
func (e Expr) EvalInt(env Env, defaultVal int64) (int64, error) {
	v, err := e.Eval(env, defaultVal)
	if err != nil {
		return 0, err
	}
	n, ok := v.Int()
	if !ok {
		return 0, fmt.Errorf("symb: %s evaluates to non-integer %s", e, v)
	}
	return n, nil
}

// String renders the expression, e.g. "2*p", "p/2", "(p + 1)/(2*q)".
func (e Expr) String() string {
	if e.isPoly() {
		return e.num.String()
	}
	den := e.den
	ns := e.num.String()
	ds := den.String()
	if e.num.NumTerms() > 1 {
		ns = "(" + ns + ")"
	}
	if den.NumTerms() > 1 {
		ds = "(" + ds + ")"
	}
	return ns + "/" + ds
}

// GCDExpr returns a best-effort symbolic gcd of two expressions, exact when
// both are single-term (monomial) expressions or when one divides the other.
// Used to compute local solutions q^L = q / gcd(q_i) (Definition 4).
func GCDExpr(a, b Expr) Expr {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	// gcd(n1/d1, n2/d2) = gcd(n1*d2, n2*d1) / (d1*d2)
	n := PolyGCD(a.num.Mul(b.Den()), b.num.Mul(a.Den()))
	return normalize(n, a.Den().Mul(b.Den()))
}

// GCDExprs folds GCDExpr over a vector.
func GCDExprs(xs []Expr) Expr {
	g := ZeroExpr()
	for _, x := range xs {
		g = GCDExpr(g, x)
		if g.IsOne() {
			break
		}
	}
	return g
}

// SumExprs returns the sum of xs.
func SumExprs(xs []Expr) Expr {
	acc := ZeroExpr()
	for _, x := range xs {
		acc = acc.Add(x)
	}
	return acc
}

// NormalizeVector scales a vector of rational-function solutions to the
// minimal integral symbolic solution, mirroring §III-A: multiply by the LCM
// of all denominators, then divide by the common content (integer and
// monomial factors shared by every entry). All entries must be nonzero.
func NormalizeVector(xs []Expr) ([]Expr, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	// LCM of denominators.
	l := PolyInt(1)
	for _, x := range xs {
		if x.IsZero() {
			return nil, fmt.Errorf("symb: zero entry in solution vector")
		}
		if !x.isPoly() {
			l = PolyLCM(l, x.den)
		}
	}
	scaled := make([]Poly, len(xs))
	for i, x := range xs {
		// Denominator 1 (stored as zero, so TryDiv refuses it), or PolyLCM
		// was conservative: multiply through by l itself.
		q := l
		if d, ok := l.TryDiv(x.den); ok {
			q = d
		}
		scaled[i] = x.num.Mul(q)
	}
	// Common rational content and monomial factor.
	g := rat.Zero
	gm := scaled[0].ContentMono()
	for _, p := range scaled {
		var err error
		g, err = rat.GCDRat(g, p.ContentRat())
		if err != nil {
			g = rat.One
			break
		}
		gm = gm.GCD(p.ContentMono())
	}
	if g.IsZero() {
		g = rat.One
	}
	out := make([]Expr, len(xs))
	for i, p := range scaled {
		out[i] = polyExpr(p.divTerm(g, gm))
	}
	return out, nil
}
