package symb

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/rat"
)

// Poly is a multivariate polynomial with rational coefficients over integer
// parameters, held as a canonical term slice: terms strictly descending in
// the graded-lex order of Mono.Cmp, no zero coefficient, nil for the zero
// polynomial (the zero value). Equal polynomials are structurally equal,
// the leading term is terms[0] and a constant test is O(1).
//
// Poly values are immutable: an operation returns a fresh slice or one of
// its operands unchanged and never writes through a slice it was handed,
// so values may be shared freely.
type Poly struct {
	terms []term
}

type term struct {
	mono Mono
	coef rat.Rat
}

// CatchOverflow is deferred by the entry points that run the kernel on
// user-supplied rates: it turns the kernel's one panic, rat.ErrOverflow
// from coefficient arithmetic, into *err and re-raises anything else.
func CatchOverflow(err *error) {
	r := recover()
	if e, ok := r.(error); ok && errors.Is(e, rat.ErrOverflow) {
		*err = fmt.Errorf("symb: coefficient arithmetic: %w", e)
	} else if r != nil {
		panic(r)
	}
}

// ZeroPoly returns the zero polynomial.
func ZeroPoly() Poly { return Poly{} }

// PolyConst returns the constant polynomial c.
func PolyConst(c rat.Rat) Poly { return PolyTerm(c, UnitMono) }

// PolyInt returns the constant polynomial n.
func PolyInt(n int64) Poly { return PolyConst(rat.FromInt(n)) }

// PolyVar returns the polynomial consisting of a single parameter.
func PolyVar(name string) Poly { return PolyTerm(rat.One, MonoVar(name)) }

// PolyTerm returns the polynomial c * m.
func PolyTerm(c rat.Rat, m Mono) Poly {
	if c.IsZero() {
		return Poly{}
	}
	return Poly{terms: []term{{m, c}}}
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// NumTerms returns the number of monomials with nonzero coefficient.
func (p Poly) NumTerms() int { return len(p.terms) }

// Const returns the value of p if it is a constant polynomial.
func (p Poly) Const() (rat.Rat, bool) {
	switch {
	case len(p.terms) == 0:
		return rat.Zero, true
	case len(p.terms) == 1 && p.terms[0].mono.IsUnit():
		return p.terms[0].coef, true
	}
	return rat.Rat{}, false
}

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool {
	c, ok := p.Const()
	return ok && c.Equal(rat.One)
}

// Vars returns the sorted set of parameter names occurring in p.
func (p Poly) Vars() []string {
	var out []string
	for _, t := range p.terms {
		out = mergeNames(out, t.mono.vars)
	}
	return out
}

// mergeNames merges the names of vs (sorted, as in every Mono) into the
// sorted, duplicate-free list names.
func mergeNames(names []string, vs []varExp) []string {
	i := 0
	for _, v := range vs {
		for i < len(names) && names[i] < v.name {
			i++
		}
		if i == len(names) || names[i] != v.name {
			names = slices.Insert(names, i, v.name)
		}
		i++
	}
	return names
}

// Degree returns the total degree of p (-1 for the zero polynomial).
func (p Poly) Degree() int {
	if p.IsZero() {
		return -1
	}
	return p.terms[0].mono.Degree() // graded order: the leading term has it
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly { return p.addMul(q, rat.One, UnitMono) }

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly { return p.addMul(q, rat.FromInt(-1), UnitMono) }

// addMul returns p + q·(c·m) in one merge pass over the two term slices.
// Graded lex is a monomial order, so q's terms times m stay descending and
// the merge needs no sort.
func (p Poly) addMul(q Poly, c rat.Rat, m Mono) Poly {
	if q.IsZero() || c.IsZero() {
		return p
	}
	plain := m.IsUnit() && c.Equal(rat.One)
	if p.IsZero() && plain {
		return q
	}
	out := make([]term, 0, len(p.terms)+len(q.terms))
	i := 0
	for _, t := range q.terms {
		if !plain {
			t = term{t.mono.Mul(m), t.coef.MustMul(c)}
		}
		for i < len(p.terms) && p.terms[i].mono.Cmp(t.mono) > 0 {
			out = append(out, p.terms[i])
			i++
		}
		if i < len(p.terms) && p.terms[i].mono.Equal(t.mono) {
			t.coef = p.terms[i].coef.MustAdd(t.coef)
			i++
			if t.coef.IsZero() {
				continue
			}
		}
		out = append(out, t)
	}
	out = append(out, p.terms[i:]...)
	if len(out) == 0 {
		return Poly{}
	}
	return Poly{terms: out}
}

// Neg returns -p.
func (p Poly) Neg() Poly { return p.Scale(rat.FromInt(-1)) }

// Scale returns c * p.
func (p Poly) Scale(c rat.Rat) Poly { return p.MulTerm(c, UnitMono) }

// MulTerm returns p * (c * m), one order-preserving pass.
func (p Poly) MulTerm(c rat.Rat, m Mono) Poly {
	if c.IsZero() || p.IsZero() {
		return Poly{}
	}
	if m.IsUnit() && c.Equal(rat.One) {
		return p
	}
	out := make([]term, len(p.terms))
	for i, t := range p.terms {
		out[i] = term{t.mono.Mul(m), t.coef.MustMul(c)}
	}
	return Poly{terms: out}
}

// Mul returns p * q: the rows p·t, one per term t of q, merged.
func (p Poly) Mul(q Poly) Poly {
	if len(p.terms) < len(q.terms) {
		p, q = q, p
	}
	var out Poly
	for _, t := range q.terms {
		out = out.addMul(p, t.coef, t.mono)
	}
	return out
}

// Equal reports whether p == q.
func (p Poly) Equal(q Poly) bool {
	return slices.EqualFunc(p.terms, q.terms, func(a, b term) bool {
		return a.coef.Equal(b.coef) && a.mono.Equal(b.mono)
	})
}

// TryDiv performs exact polynomial division p / d using graded-lex long
// division. It returns (q, true) iff p == q*d exactly.
func (p Poly) TryDiv(d Poly) (Poly, bool) {
	if d.IsZero() {
		return Poly{}, false
	}
	if p.IsZero() {
		return ZeroPoly(), true
	}
	if c, ok := d.Const(); ok {
		return p.Scale(c.Inv()), true
	}
	// The remainder's leading terms strictly descend, so the quotient's
	// terms are produced in canonical order.
	var q []term
	r := p
	ld := d.terms[0]
	for !r.IsZero() {
		lr := r.terms[0]
		mq, ok := lr.mono.Div(ld.mono)
		if !ok {
			return Poly{}, false
		}
		cq := lr.coef.MustDiv(ld.coef)
		q = append(q, term{mq, cq})
		r = r.addMul(d, cq.Neg(), mq)
	}
	return Poly{terms: q}, true
}

// ContentMono returns the monomial gcd of all terms (unit for zero poly).
func (p Poly) ContentMono() Mono {
	if p.IsZero() {
		return UnitMono
	}
	g := p.terms[0].mono
	for _, t := range p.terms[1:] {
		if g.IsUnit() {
			break
		}
		g = g.GCD(t.mono)
	}
	return g
}

// ContentRat returns the rational content: gcd of all coefficients (so that
// p / content has integer, coprime coefficients). Zero poly yields 0.
func (p Poly) ContentRat() rat.Rat {
	g := rat.Zero
	for _, t := range p.terms {
		var err error
		g, err = rat.GCDRat(g, t.coef)
		if err != nil {
			// Overflow computing gcd: fall back to 1 (valid, non-minimal).
			return rat.One
		}
	}
	return g
}

// divTerm returns p / (c·m) for a nonzero c and a monomial m dividing every
// term (dividing by a common factor keeps the terms in order).
func (p Poly) divTerm(c rat.Rat, m Mono) Poly {
	if m.IsUnit() && c.Equal(rat.One) {
		return p
	}
	out := make([]term, len(p.terms))
	for i, t := range p.terms {
		q, ok := t.mono.Div(m)
		if !ok {
			panic("symb: content monomial does not divide term")
		}
		out[i] = term{q, t.coef.MustDiv(c)}
	}
	return Poly{terms: out}
}

// Primitive returns p divided by its rational and monomial content, plus the
// extracted content (c, m) such that p == primitive * c * m. The primitive
// part has integer coprime coefficients and no common monomial factor, and a
// positive leading coefficient; the sign is carried by c.
func (p Poly) Primitive() (prim Poly, c rat.Rat, m Mono) {
	if p.IsZero() {
		return ZeroPoly(), rat.Zero, UnitMono
	}
	m = p.ContentMono()
	c = p.ContentRat()
	if p.terms[0].coef.Sign() < 0 {
		c = c.Neg()
	}
	return p.divTerm(c, m), c, m
}

// Eval evaluates p in env; parameters missing from env default to
// defaultVal. The error reports overflow.
func (p Poly) Eval(env Env, defaultVal int64) (rat.Rat, error) {
	acc := rat.Zero
	for _, t := range p.terms {
		mv, ok := t.mono.Eval(env, defaultVal)
		if !ok {
			return rat.Rat{}, rat.ErrOverflow
		}
		tv, err := t.coef.Mul(rat.FromInt(mv))
		if err != nil {
			return rat.Rat{}, err
		}
		acc, err = acc.Add(tv)
		if err != nil {
			return rat.Rat{}, err
		}
	}
	return acc, nil
}

// String renders the polynomial in descending graded-lex term order,
// e.g. "2*p^2 + p - 3". The zero polynomial renders as "0".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	for i, t := range p.terms {
		c := t.coef
		if i == 0 {
			if c.Sign() < 0 {
				b.WriteString("-")
				c = c.Neg()
			}
		} else {
			if c.Sign() < 0 {
				b.WriteString(" - ")
				c = c.Neg()
			} else {
				b.WriteString(" + ")
			}
		}
		switch {
		case t.mono.IsUnit():
			b.WriteString(c.String())
		case c.Equal(rat.One):
			b.WriteString(t.mono.String())
		default:
			fmt.Fprintf(&b, "%s*%s", c.String(), t.mono.String())
		}
	}
	return b.String()
}

// PolyGCD returns a best-effort gcd of two polynomials with respect to
// integer-content divisibility (the notion Definition 4 of the paper needs:
// gcd(p, 2p) = p, not 2p, because 2p does not divide p over ℤ).
//
// Each argument is split into content (rational coefficient gcd), monomial
// factor and primitive part; the result combines the rational gcd of the
// contents, the monomial gcd, and the primitive gcd — exact when one
// primitive divides the other (which covers monomials and identical sum
// expressions, the forms parametric dataflow rates take), and 1 otherwise
// (still a valid common divisor, merely conservative).
func PolyGCD(a, b Poly) Poly {
	switch {
	case a.IsZero():
		return b
	case b.IsZero():
		return a
	}
	pa, ca, ma := a.Primitive()
	pb, cb, mb := b.Primitive()
	cg, err := rat.GCDRat(ca.Abs(), cb.Abs())
	if err != nil || cg.IsZero() {
		cg = rat.One
	}
	mg := ma.GCD(mb)
	pg := PolyInt(1)
	if _, ok := pa.TryDiv(pb); ok { // pb | pa
		pg = pb
	} else if _, ok := pb.TryDiv(pa); ok { // pa | pb
		pg = pa
	}
	return pg.MulTerm(cg, mg)
}

// PolyLCM returns a*b/gcd(a,b); with the best-effort gcd this is always a
// common multiple, minimal in the exact cases.
func PolyLCM(a, b Poly) Poly {
	if a.IsZero() || b.IsZero() {
		return ZeroPoly()
	}
	g := PolyGCD(a, b)
	q, ok := a.TryDiv(g)
	if !ok {
		return a.Mul(b)
	}
	return q.Mul(b)
}
