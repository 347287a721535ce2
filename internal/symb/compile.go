package symb

import (
	"fmt"

	"repro/internal/rat"
)

// ParamIndex assigns a dense slot to every parameter name a compiled
// polynomial may reference. Compiling against a fixed index turns every
// subsequent evaluation into flat-slice arithmetic: no map lookups, no
// allocations — the shape the analysis sweeps need when they evaluate one
// parametric graph at thousands of valuations.
type ParamIndex struct {
	names []string
	pos   map[string]int
}

// NewParamIndex builds an index over the given names (first occurrence
// wins; duplicates are ignored).
func NewParamIndex(names []string) *ParamIndex {
	pi := &ParamIndex{pos: make(map[string]int, len(names))}
	for _, n := range names {
		if _, dup := pi.pos[n]; dup {
			continue
		}
		pi.pos[n] = len(pi.names)
		pi.names = append(pi.names, n)
	}
	return pi
}

// Len returns the number of indexed parameters.
func (pi *ParamIndex) Len() int { return len(pi.names) }

// Names returns the indexed names in slot order (shared slice; do not
// mutate).
func (pi *ParamIndex) Names() []string { return pi.names }

// Index returns the slot of the named parameter.
func (pi *ParamIndex) Index(name string) (int, bool) {
	i, ok := pi.pos[name]
	return i, ok
}

// CompiledPoly is a polynomial lowered to flat coefficient and exponent
// tables over a ParamIndex. Terms are stored in descending graded-lex order,
// so compilation is deterministic and evaluation order is reproducible.
type CompiledPoly struct {
	nparams int
	coefs   []rat.Rat
	exps    []int32 // term-major: exps[t*nparams+slot]
}

// Compile lowers p over the index. Every parameter occurring in p must be
// indexed; evaluation then reads the valuation slice positionally.
func (p Poly) Compile(pi *ParamIndex) (*CompiledPoly, error) {
	terms := p.terms
	c := &CompiledPoly{
		nparams: pi.Len(),
		coefs:   make([]rat.Rat, len(terms)),
		exps:    make([]int32, len(terms)*pi.Len()),
	}
	for t, tm := range terms {
		c.coefs[t] = tm.coef
		row := c.exps[t*c.nparams : (t+1)*c.nparams]
		for _, v := range tm.mono.vars {
			slot, ok := pi.Index(v.name)
			if !ok {
				return nil, fmt.Errorf("symb: parameter %q not in index", v.name)
			}
			row[slot] = int32(v.exp)
		}
	}
	return c, nil
}

// NumTerms returns the number of compiled terms.
func (c *CompiledPoly) NumTerms() int { return len(c.coefs) }

// EvalInto evaluates the polynomial at the valuation (indexed by the
// ParamIndex the poly was compiled against) and stores the result in *dst.
// It performs no allocations; the error reports int64 overflow.
func (c *CompiledPoly) EvalInto(dst *rat.Rat, vals []int64) error {
	acc := rat.Zero
	for t := 0; t < len(c.coefs); t++ {
		mv := int64(1)
		row := c.exps[t*c.nparams : (t+1)*c.nparams]
		for slot, e := range row {
			if e == 0 {
				continue
			}
			v := vals[slot]
			for k := int32(0); k < e; k++ {
				prod := mv * v
				if v != 0 && prod/v != mv {
					return rat.ErrOverflow
				}
				mv = prod
			}
		}
		tv, err := c.coefs[t].Mul(rat.FromInt(mv))
		if err != nil {
			return err
		}
		acc, err = acc.Add(tv)
		if err != nil {
			return err
		}
	}
	*dst = acc
	return nil
}

// Eval is EvalInto returning the value.
func (c *CompiledPoly) Eval(vals []int64) (rat.Rat, error) {
	var out rat.Rat
	err := c.EvalInto(&out, vals)
	return out, err
}

// CompiledExpr is a rational function lowered over a ParamIndex: a compiled
// numerator/denominator pair evaluated without map lookups or allocations.
type CompiledExpr struct {
	num, den *CompiledPoly
}

// Compile lowers e over the index.
func (e Expr) Compile(pi *ParamIndex) (*CompiledExpr, error) {
	num, err := e.Num().Compile(pi)
	if err != nil {
		return nil, err
	}
	den, err := e.Den().Compile(pi)
	if err != nil {
		return nil, err
	}
	return &CompiledExpr{num: num, den: den}, nil
}

// EvalInto evaluates the expression at the valuation and stores the result
// in *dst, allocation-free. The error reports overflow or a denominator
// that evaluates to zero.
func (c *CompiledExpr) EvalInto(dst *rat.Rat, vals []int64) error {
	var nv, dv rat.Rat
	if err := c.num.EvalInto(&nv, vals); err != nil {
		return err
	}
	if err := c.den.EvalInto(&dv, vals); err != nil {
		return err
	}
	if dv.IsZero() {
		return fmt.Errorf("symb: denominator evaluates to zero")
	}
	v, err := nv.Div(dv)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// Eval is EvalInto returning the value.
func (c *CompiledExpr) Eval(vals []int64) (rat.Rat, error) {
	var out rat.Rat
	err := c.EvalInto(&out, vals)
	return out, err
}

// EvalIntInto evaluates the expression, requires an integer result, and
// stores it in *dst without allocating.
func (c *CompiledExpr) EvalIntInto(dst *int64, vals []int64) error {
	var v rat.Rat
	if err := c.EvalInto(&v, vals); err != nil {
		return err
	}
	n, ok := v.Int()
	if !ok {
		return fmt.Errorf("symb: compiled expression evaluates to non-integer %s", v)
	}
	*dst = n
	return nil
}

// EvalInt is EvalIntInto returning the value.
func (c *CompiledExpr) EvalInt(vals []int64) (int64, error) {
	var out int64
	err := c.EvalIntInto(&out, vals)
	return out, err
}
