// Package symb implements the symbolic integer arithmetic used by the TPDF
// static analyses: named integer parameters, monomials, multivariate
// polynomials with rational coefficients, and rational functions (Expr).
//
// Parametric dataflow rates such as p, 2*p, beta*M*N or beta*(N+L) are
// represented as Expr values. Balance equations over these rates are solved
// exactly: propagation along a spanning tree produces rational-function
// firing ratios, which are then normalized to the minimal integer symbolic
// solution exactly as in §III-A of the TPDF paper.
//
// There is one representation and one arithmetic. A Poly is a canonical
// term slice (strictly descending graded-lex order, no zero coefficient,
// nil for 0), so sums are merges and comparisons are pairwise; an Expr
// whose denominator is 1 stores no denominator and its arithmetic stays on
// the numerators (the polynomial path), everything else goes through
// normalize. All values are immutable and may be shared. Coefficient
// overflow panics with rat.ErrOverflow inside the kernel; the entry points
// that take user-supplied rates defer CatchOverflow and return it.
package symb

import (
	"sort"
	"strconv"
	"strings"
)

// Mono is a monomial: a product of parameters raised to non-negative integer
// powers, e.g. p^2*q. The zero value is the unit monomial 1.
// Mono values are immutable; operations return new values.
type Mono struct {
	vars []varExp // sorted by name, exponents > 0
}

type varExp struct {
	name string
	exp  int
}

// UnitMono is the monomial 1.
var UnitMono = Mono{}

// MonoVar returns the monomial consisting of a single parameter.
func MonoVar(name string) Mono {
	return Mono{vars: []varExp{{name, 1}}}
}

// MonoPow returns name^exp. exp must be >= 0; exp == 0 yields the unit.
func MonoPow(name string, exp int) Mono {
	if exp < 0 {
		panic("symb: negative exponent in monomial")
	}
	if exp == 0 {
		return UnitMono
	}
	return Mono{vars: []varExp{{name, exp}}}
}

// IsUnit reports whether m == 1.
func (m Mono) IsUnit() bool { return len(m.vars) == 0 }

// Degree returns the total degree (sum of exponents).
func (m Mono) Degree() int {
	d := 0
	for _, v := range m.vars {
		d += v.exp
	}
	return d
}

// Exp returns the exponent of the named parameter (0 if absent).
func (m Mono) Exp(name string) int {
	for _, v := range m.vars {
		if v.name == name {
			return v.exp
		}
	}
	return 0
}

// Vars returns the parameter names occurring in m, sorted.
func (m Mono) Vars() []string {
	out := make([]string, len(m.vars))
	for i, v := range m.vars {
		out[i] = v.name
	}
	return out
}

// Mul returns m * n.
func (m Mono) Mul(n Mono) Mono {
	if m.IsUnit() {
		return n
	}
	if n.IsUnit() {
		return m
	}
	out := make([]varExp, 0, len(m.vars)+len(n.vars))
	i, j := 0, 0
	for i < len(m.vars) && j < len(n.vars) {
		switch {
		case m.vars[i].name < n.vars[j].name:
			out = append(out, m.vars[i])
			i++
		case m.vars[i].name > n.vars[j].name:
			out = append(out, n.vars[j])
			j++
		default:
			out = append(out, varExp{m.vars[i].name, m.vars[i].exp + n.vars[j].exp})
			i++
			j++
		}
	}
	out = append(out, m.vars[i:]...)
	out = append(out, n.vars[j:]...)
	return Mono{vars: out}
}

// Div returns m / n and whether the division is exact (all resulting
// exponents non-negative).
func (m Mono) Div(n Mono) (Mono, bool) {
	if n.IsUnit() {
		return m, true
	}
	out := make([]varExp, 0, len(m.vars))
	i, j := 0, 0
	for j < len(n.vars) {
		if i >= len(m.vars) || m.vars[i].name > n.vars[j].name {
			return Mono{}, false // n has a var m lacks
		}
		if m.vars[i].name < n.vars[j].name {
			out = append(out, m.vars[i])
			i++
			continue
		}
		d := m.vars[i].exp - n.vars[j].exp
		if d < 0 {
			return Mono{}, false
		}
		if d > 0 {
			out = append(out, varExp{m.vars[i].name, d})
		}
		i++
		j++
	}
	out = append(out, m.vars[i:]...)
	return Mono{vars: out}, true
}

// GCD returns the greatest common divisor of m and n (min exponents).
func (m Mono) GCD(n Mono) Mono {
	var out []varExp
	i, j := 0, 0
	for i < len(m.vars) && j < len(n.vars) {
		switch {
		case m.vars[i].name < n.vars[j].name:
			i++
		case m.vars[i].name > n.vars[j].name:
			j++
		default:
			e := m.vars[i].exp
			if n.vars[j].exp < e {
				e = n.vars[j].exp
			}
			out = append(out, varExp{m.vars[i].name, e})
			i++
			j++
		}
	}
	return Mono{vars: out}
}

// Equal reports m == n.
func (m Mono) Equal(n Mono) bool {
	if len(m.vars) != len(n.vars) {
		return false
	}
	for i := range m.vars {
		if m.vars[i] != n.vars[i] {
			return false
		}
	}
	return true
}

// Cmp imposes a total order: graded lexicographic (degree first, then
// lexicographic). Returns -1, 0 or +1.
func (m Mono) Cmp(n Mono) int {
	dm, dn := m.Degree(), n.Degree()
	if dm != dn {
		if dm < dn {
			return -1
		}
		return 1
	}
	i, j := 0, 0
	for i < len(m.vars) && j < len(n.vars) {
		if m.vars[i].name != n.vars[j].name {
			// Earlier name with positive exponent is lexicographically larger.
			if m.vars[i].name < n.vars[j].name {
				return 1
			}
			return -1
		}
		if m.vars[i].exp != n.vars[j].exp {
			if m.vars[i].exp > n.vars[j].exp {
				return 1
			}
			return -1
		}
		i++
		j++
	}
	switch {
	case i < len(m.vars):
		return 1
	case j < len(n.vars):
		return -1
	default:
		return 0
	}
}

// String renders the monomial, e.g. "p^2*q"; the unit renders as "1".
func (m Mono) String() string {
	if m.IsUnit() {
		return "1"
	}
	var b strings.Builder
	for i, v := range m.vars {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(v.name)
		if v.exp != 1 {
			b.WriteByte('^')
			b.WriteString(strconv.Itoa(v.exp))
		}
	}
	return b.String()
}

// Eval evaluates the monomial in the environment. Missing parameters
// default to defaultVal (the analyses use 1, the smallest legal value).
func (m Mono) Eval(env Env, defaultVal int64) (int64, bool) {
	acc := int64(1)
	for _, v := range m.vars {
		val, ok := env[v.name]
		if !ok {
			val = defaultVal
		}
		for e := 0; e < v.exp; e++ {
			prod := acc * val
			if val != 0 && prod/val != acc {
				return 0, false
			}
			acc = prod
		}
	}
	return acc, true
}

// Env assigns concrete int64 values to parameters.
type Env map[string]int64

// Clone returns a copy of the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Names returns the parameter names in the environment, sorted.
func (e Env) Names() []string {
	out := make([]string, 0, len(e))
	for k := range e {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
