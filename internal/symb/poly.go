package symb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rat"
)

// Poly is a multivariate polynomial with rational coefficients over integer
// parameters. The zero value is the zero polynomial. Poly values are
// immutable from the caller's perspective; operations return new values.
type Poly struct {
	terms map[string]term // canonical mono key -> term
}

type term struct {
	mono Mono
	coef rat.Rat
}

// ZeroPoly returns the zero polynomial.
func ZeroPoly() Poly { return Poly{} }

// PolyConst returns the constant polynomial c.
func PolyConst(c rat.Rat) Poly {
	p := Poly{}
	p = p.addTerm(UnitMono, c)
	return p
}

// PolyInt returns the constant polynomial n.
func PolyInt(n int64) Poly { return PolyConst(rat.FromInt(n)) }

// PolyVar returns the polynomial consisting of a single parameter.
func PolyVar(name string) Poly {
	p := Poly{}
	return p.addTerm(MonoVar(name), rat.One)
}

// PolyTerm returns the polynomial c * m.
func PolyTerm(c rat.Rat, m Mono) Poly {
	p := Poly{}
	return p.addTerm(m, c)
}

// addTerm returns p with c*m added (functional; copies the map).
func (p Poly) addTerm(m Mono, c rat.Rat) Poly {
	if c.IsZero() {
		return p
	}
	out := p.clone()
	k := m.key()
	if t, ok := out.terms[k]; ok {
		nc := t.coef.MustAdd(c)
		if nc.IsZero() {
			delete(out.terms, k)
		} else {
			out.terms[k] = term{m, nc}
		}
	} else {
		out.terms[k] = term{m, c}
	}
	return out
}

func (p Poly) clone() Poly {
	out := Poly{terms: make(map[string]term, len(p.terms)+1)}
	for k, t := range p.terms {
		out.terms[k] = t
	}
	return out
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// NumTerms returns the number of monomials with nonzero coefficient.
func (p Poly) NumTerms() int { return len(p.terms) }

// Const returns the value of p if it is a constant polynomial.
func (p Poly) Const() (rat.Rat, bool) {
	switch len(p.terms) {
	case 0:
		return rat.Zero, true
	case 1:
		if t, ok := p.terms[""]; ok {
			return t.coef, true
		}
	}
	return rat.Rat{}, false
}

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool {
	c, ok := p.Const()
	return ok && c.Equal(rat.One)
}

// Coef returns the coefficient of monomial m in p.
func (p Poly) Coef(m Mono) rat.Rat {
	if t, ok := p.terms[m.key()]; ok {
		return t.coef
	}
	return rat.Zero
}

// Vars returns the sorted set of parameter names occurring in p.
func (p Poly) Vars() []string {
	set := map[string]bool{}
	for _, t := range p.terms {
		for _, v := range t.mono.Vars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Degree returns the total degree of p (-1 for the zero polynomial).
func (p Poly) Degree() int {
	if p.IsZero() {
		return -1
	}
	d := 0
	for _, t := range p.terms {
		if td := t.mono.Degree(); td > d {
			d = td
		}
	}
	return d
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	out := p.clone()
	for k, t := range q.terms {
		if e, ok := out.terms[k]; ok {
			nc := e.coef.MustAdd(t.coef)
			if nc.IsZero() {
				delete(out.terms, k)
			} else {
				out.terms[k] = term{e.mono, nc}
			}
		} else {
			out.terms[k] = t
		}
	}
	return out
}

// Neg returns -p.
func (p Poly) Neg() Poly {
	out := Poly{terms: make(map[string]term, len(p.terms))}
	for k, t := range p.terms {
		out.terms[k] = term{t.mono, t.coef.Neg()}
	}
	return out
}

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly { return p.Add(q.Neg()) }

// Scale returns c * p.
func (p Poly) Scale(c rat.Rat) Poly {
	if c.IsZero() {
		return ZeroPoly()
	}
	out := Poly{terms: make(map[string]term, len(p.terms))}
	for k, t := range p.terms {
		out.terms[k] = term{t.mono, t.coef.MustMul(c)}
	}
	return out
}

// MulTerm returns p * (c * m).
func (p Poly) MulTerm(c rat.Rat, m Mono) Poly {
	if c.IsZero() {
		return ZeroPoly()
	}
	out := Poly{terms: make(map[string]term, len(p.terms))}
	for _, t := range p.terms {
		nm := t.mono.Mul(m)
		out.terms[nm.key()] = term{nm, t.coef.MustMul(c)}
	}
	return out
}

// Mul returns p * q.
func (p Poly) Mul(q Poly) Poly {
	out := ZeroPoly()
	for _, t := range q.terms {
		out = out.Add(p.MulTerm(t.coef, t.mono))
	}
	return out
}

// Equal reports whether p == q.
func (p Poly) Equal(q Poly) bool {
	if len(p.terms) != len(q.terms) {
		return false
	}
	for k, t := range p.terms {
		u, ok := q.terms[k]
		if !ok || !t.coef.Equal(u.coef) {
			return false
		}
	}
	return true
}

// sortedTerms returns the terms in descending graded-lex order.
func (p Poly) sortedTerms() []term {
	out := make([]term, 0, len(p.terms))
	for _, t := range p.terms {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mono.Cmp(out[j].mono) > 0 })
	return out
}

// leadingTerm returns the graded-lex greatest term. p must be nonzero.
func (p Poly) leadingTerm() term {
	var best term
	first := true
	for _, t := range p.terms {
		if first || t.mono.Cmp(best.mono) > 0 {
			best = t
			first = false
		}
	}
	return best
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
	q := ZeroPoly()
	r := p
	ld := d.leadingTerm()
	for !r.IsZero() {
		lr := r.leadingTerm()
		mq, ok := lr.mono.Div(ld.mono)
		if !ok {
			return Poly{}, false
		}
		cq := lr.coef.MustDiv(ld.coef)
		q = q.addTerm(mq, cq)
		r = r.Sub(d.MulTerm(cq, mq))
	}
	return q, true
}

// ContentMono returns the monomial gcd of all terms (unit for zero poly).
func (p Poly) ContentMono() Mono {
	var g Mono
	first := true
	for _, t := range p.terms {
		if first {
			g = t.mono
			first = false
		} else {
			g = g.GCD(t.mono)
		}
		if g.IsUnit() {
			break
		}
	}
	if first {
		return UnitMono
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
	if p.leadingTerm().coef.Sign() < 0 {
		c = c.Neg()
	}
	out := Poly{terms: make(map[string]term, len(p.terms))}
	for _, t := range p.terms {
		nm, ok := t.mono.Div(m)
		if !ok {
			panic("symb: content monomial does not divide term")
		}
		out.terms[nm.key()] = term{nm, t.coef.MustDiv(c)}
	}
	return out, c, m
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
	for i, t := range p.sortedTerms() {
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
