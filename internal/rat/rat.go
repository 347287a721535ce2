// Package rat implements exact rational arithmetic over int64.
//
// It is the numeric foundation for every balance-equation computation in the
// repository: topology matrices, repetition vectors and symbolic polynomial
// coefficients are all built from rat.Rat values. Compared to math/big.Rat it
// is allocation-free for the graph sizes handled here; every operation checks
// for int64 overflow and reports it through an explicit error so analyses
// fail loudly instead of silently wrapping.
package rat

import (
	"fmt"
	"strconv"
	"strings"
)

// Rat is a rational number num/den held in normalized form: den > 0 and
// gcd(|num|, den) == 1. The zero value is the rational 0 (0/1 after
// normalization through the constructors; methods treat den==0 as 0/1 so the
// zero value is usable directly).
type Rat struct {
	num int64
	den int64
}

// Zero and One are the additive and multiplicative identities.
var (
	Zero = Rat{0, 1}
	One  = Rat{1, 1}
)

// ErrOverflow reports that an operation exceeded the int64 range.
var ErrOverflow = fmt.Errorf("rat: int64 overflow")

// New returns the normalized rational num/den.
// It panics if den == 0; use NewChecked to detect that case as an error.
func New(num, den int64) Rat {
	r, err := NewChecked(num, den)
	if err != nil {
		panic(err)
	}
	return r
}

// NewChecked returns the normalized rational num/den, or an error if den==0.
func NewChecked(num, den int64) (Rat, error) {
	if den == 0 {
		return Rat{}, fmt.Errorf("rat: zero denominator")
	}
	if num == 0 {
		return Rat{0, 1}, nil
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := GCD64(abs64(num), den)
	return Rat{num / g, den / g}, nil
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Num returns the normalized numerator.
func (r Rat) Num() int64 { return r.num }

// Den returns the normalized denominator (always >= 1).
func (r Rat) Den() int64 {
	if r.den == 0 {
		return 1 // zero value behaves as 0/1
	}
	return r.den
}

// norm returns r with the zero-value denominator fixed up.
func (r Rat) norm() Rat {
	if r.den == 0 {
		return Rat{r.num, 1}
	}
	return r
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// Int returns the value as an int64 and whether the conversion was exact.
func (r Rat) Int() (int64, bool) {
	r = r.norm()
	if r.den != 1 {
		return 0, false
	}
	return r.num, true
}

// Sign returns -1, 0 or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// Neg returns -r.
func (r Rat) Neg() Rat {
	r = r.norm()
	return Rat{-r.num, r.den}
}

// Inv returns 1/r. It panics if r is zero.
func (r Rat) Inv() Rat {
	r = r.norm()
	if r.num == 0 {
		panic("rat: inverse of zero")
	}
	n, d := r.den, r.num
	if d < 0 {
		n, d = -n, -d
	}
	return Rat{n, d}
}

// Add returns r+s, or ErrOverflow.
func (r Rat) Add(s Rat) (Rat, error) {
	r, s = r.norm(), s.norm()
	// r.num/r.den + s.num/s.den = (r.num*s.den + s.num*r.den) / (r.den*s.den)
	a, ok := mul64(r.num, s.den)
	if !ok {
		return Rat{}, ErrOverflow
	}
	b, ok := mul64(s.num, r.den)
	if !ok {
		return Rat{}, ErrOverflow
	}
	n, ok := add64(a, b)
	if !ok {
		return Rat{}, ErrOverflow
	}
	d, ok := mul64(r.den, s.den)
	if !ok {
		return Rat{}, ErrOverflow
	}
	return NewChecked(n, d)
}

// Sub returns r-s, or ErrOverflow.
func (r Rat) Sub(s Rat) (Rat, error) { return r.Add(s.Neg()) }

// Mul returns r*s, or ErrOverflow. Cross-cancellation keeps intermediates
// small so overflow only occurs when the true result overflows.
func (r Rat) Mul(s Rat) (Rat, error) {
	r, s = r.norm(), s.norm()
	if r.num == 0 || s.num == 0 {
		return Zero, nil
	}
	g1 := GCD64(abs64(r.num), s.den)
	g2 := GCD64(abs64(s.num), r.den)
	n, ok := mul64(r.num/g1, s.num/g2)
	if !ok {
		return Rat{}, ErrOverflow
	}
	d, ok := mul64(r.den/g2, s.den/g1)
	if !ok {
		return Rat{}, ErrOverflow
	}
	return NewChecked(n, d)
}

// Div returns r/s. It panics if s is zero and propagates ErrOverflow.
func (r Rat) Div(s Rat) (Rat, error) { return r.Mul(s.Inv()) }

// MustAdd is Add that panics with ErrOverflow. The Must forms are the
// symbolic kernel's arithmetic (internal/symb), on user-supplied rates too;
// its entry points recover that panic into an error (symb.CatchOverflow).
func (r Rat) MustAdd(s Rat) Rat { return must(r.Add(s)) }

// MustMul is Mul that panics on overflow.
func (r Rat) MustMul(s Rat) Rat { return must(r.Mul(s)) }

// MustDiv is Div that panics on overflow or division by zero.
func (r Rat) MustDiv(s Rat) Rat { return must(r.Div(s)) }

func must(r Rat, err error) Rat {
	if err != nil {
		panic(err)
	}
	return r
}

// Cmp compares r and s, returning -1, 0 or +1. It never overflows: it
// compares via the sign of r-s computed with cross multiplication in 128-bit
// space emulated by splitting, but since graph quantities are modest we use
// checked multiply and fall back to float comparison only on overflow.
func (r Rat) Cmp(s Rat) int {
	r, s = r.norm(), s.norm()
	a, ok1 := mul64(r.num, s.den)
	b, ok2 := mul64(s.num, r.den)
	if ok1 && ok2 {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	// Extremely large operands: compare as floats (adequate tie-breaking is
	// irrelevant at this magnitude for our use cases).
	x := float64(r.num) / float64(r.den)
	y := float64(s.num) / float64(s.den)
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool {
	r, s = r.norm(), s.norm()
	return r.num == s.num && r.den == s.den
}

// Abs returns |r|.
func (r Rat) Abs() Rat {
	r = r.norm()
	if r.num < 0 {
		return Rat{-r.num, r.den}
	}
	return r
}

// String renders r as "n" or "n/d".
func (r Rat) String() string {
	r = r.norm()
	if r.den == 1 {
		return strconv.FormatInt(r.num, 10)
	}
	return strconv.FormatInt(r.num, 10) + "/" + strconv.FormatInt(r.den, 10)
}

// Parse parses "n" or "n/d" (with optional surrounding spaces).
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, err := strconv.ParseInt(strings.TrimSpace(s[:i]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("rat: parse %q: %v", s, err)
		}
		d, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("rat: parse %q: %v", s, err)
		}
		return NewChecked(n, d)
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Rat{}, fmt.Errorf("rat: parse %q: %v", s, err)
	}
	return FromInt(n), nil
}

// GCD64 returns the greatest common divisor of two non-negative int64s,
// with GCD64(0, 0) == 0 and GCD64(x, 0) == x.
func GCD64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 0
	}
	return a
}

// LCM64 returns the least common multiple of two non-negative int64s,
// or false on overflow. LCM64(0, x) == 0.
func LCM64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	g := GCD64(a, b)
	return mul64(a/g, b)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// GCDRat returns the rational gcd of a and b: the largest rational g such
// that a/g and b/g are integers. gcd(a/b, c/d) = gcd(a*d, c*b)/(b*d) reduced;
// equivalently gcd(num)/lcm(den). GCDRat(0,0)==0.
func GCDRat(a, b Rat) (Rat, error) {
	a, b = a.Abs(), b.Abs()
	if a.IsZero() {
		return b, nil
	}
	if b.IsZero() {
		return a, nil
	}
	n := GCD64(a.Num(), b.Num())
	d, ok := LCM64(a.Den(), b.Den())
	if !ok {
		return Rat{}, ErrOverflow
	}
	return NewChecked(n, d)
}
