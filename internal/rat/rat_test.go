package rat

import (
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		n, d   int64
		wantN  int64
		wantD  int64
		wantRe string
	}{
		{1, 2, 1, 2, "1/2"},
		{2, 4, 1, 2, "1/2"},
		{-2, 4, -1, 2, "-1/2"},
		{2, -4, -1, 2, "-1/2"},
		{-2, -4, 1, 2, "1/2"},
		{0, 5, 0, 1, "0"},
		{6, 3, 2, 1, "2"},
		{7, 1, 7, 1, "7"},
	}
	for _, c := range cases {
		r := New(c.n, c.d)
		if r.Num() != c.wantN || r.Den() != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.n, c.d, r.Num(), r.Den(), c.wantN, c.wantD)
		}
		if got := r.String(); got != c.wantRe {
			t.Errorf("New(%d,%d).String() = %q, want %q", c.n, c.d, got, c.wantRe)
		}
	}
}

func TestNewCheckedZeroDen(t *testing.T) {
	if _, err := NewChecked(1, 0); err == nil {
		t.Fatal("NewChecked(1,0) should fail")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var z Rat
	if !z.IsZero() {
		t.Error("zero value should be zero")
	}
	if z.Den() != 1 {
		t.Errorf("zero value Den = %d, want 1", z.Den())
	}
	s, err := z.Add(New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(New(1, 3)) {
		t.Errorf("0 + 1/3 = %v", s)
	}
	if z.String() != "0" {
		t.Errorf("zero String = %q", z.String())
	}
}

func TestArithmetic(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)

	if got := half.MustAdd(third); !got.Equal(New(5, 6)) {
		t.Errorf("1/2 + 1/3 = %v, want 5/6", got)
	}
	if got, err := half.Sub(third); err != nil || !got.Equal(New(1, 6)) {
		t.Errorf("1/2 - 1/3 = %v, %v, want 1/6", got, err)
	}
	if got := half.MustMul(third); !got.Equal(New(1, 6)) {
		t.Errorf("1/2 * 1/3 = %v, want 1/6", got)
	}
	if got := half.MustDiv(third); !got.Equal(New(3, 2)) {
		t.Errorf("(1/2)/(1/3) = %v, want 3/2", got)
	}
	if got := half.Neg(); !got.Equal(New(-1, 2)) {
		t.Errorf("-(1/2) = %v", got)
	}
	if got := New(-3, 7).Inv(); !got.Equal(New(-7, 3)) {
		t.Errorf("inv(-3/7) = %v, want -7/3", got)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv of zero should panic")
		}
	}()
	Zero.Inv()
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b Rat
		want int
	}{
		{New(1, 2), New(1, 3), 1},
		{New(1, 3), New(1, 2), -1},
		{New(2, 4), New(1, 2), 0},
		{New(-1, 2), New(1, 2), -1},
		{Zero, Zero, 0},
		{New(-1, 3), New(-1, 2), 1},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIntConversion(t *testing.T) {
	if v, ok := New(6, 3).Int(); !ok || v != 2 {
		t.Errorf("6/3 as int = %d,%v", v, ok)
	}
	if _, ok := New(1, 2).Int(); ok {
		t.Error("1/2 should not be an integer")
	}
	if !New(4, 2).IsInt() {
		t.Error("4/2 should be int")
	}
}

func TestOverflowDetected(t *testing.T) {
	big := FromInt(1 << 62)
	if _, err := big.Mul(big); err != ErrOverflow {
		t.Errorf("expected overflow, got %v", err)
	}
	if _, err := big.Add(big); err != ErrOverflow {
		t.Errorf("expected overflow on add, got %v", err)
	}
	// Cross-cancellation avoids bogus overflow: (2^62)/3 * 3/(2^62) == 1.
	a := New(1<<62, 3)
	b := New(3, 1<<62)
	got, err := a.Mul(b)
	if err != nil || !got.Equal(One) {
		t.Errorf("cancelling mul = %v, %v; want 1", got, err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Rat
		ok   bool
	}{
		{"3", FromInt(3), true},
		{"-4", FromInt(-4), true},
		{"1/2", New(1, 2), true},
		{" 6 / 4 ", New(3, 2), true},
		{"x", Rat{}, false},
		{"1/0", Rat{}, false},
		{"1/x", Rat{}, false},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGCD64(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6}, {18, 12, 6}, {5, 7, 1}, {0, 4, 4}, {4, 0, 4}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := GCD64(c.a, c.b); got != c.want {
			t.Errorf("GCD64(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM64(t *testing.T) {
	if v, ok := LCM64(4, 6); !ok || v != 12 {
		t.Errorf("LCM64(4,6) = %d,%v", v, ok)
	}
	if v, ok := LCM64(0, 6); !ok || v != 0 {
		t.Errorf("LCM64(0,6) = %d,%v", v, ok)
	}
	if _, ok := LCM64(1<<62, 3); ok {
		t.Error("LCM64 overflow not detected")
	}
}

func TestGCDRat(t *testing.T) {
	g, err := GCDRat(New(1, 2), New(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(New(1, 6)) {
		t.Errorf("gcd(1/2,1/3) = %v, want 1/6", g)
	}
	// Both divided by gcd must be integers.
	for _, r := range []Rat{New(1, 2), New(1, 3)} {
		q := r.MustDiv(g)
		if !q.IsInt() {
			t.Errorf("%v / %v = %v not integral", r, g, q)
		}
	}
	g2, _ := GCDRat(FromInt(6), FromInt(4))
	if !g2.Equal(FromInt(2)) {
		t.Errorf("gcd(6,4) = %v, want 2", g2)
	}
	g3, _ := GCDRat(Zero, New(5, 3))
	if !g3.Equal(New(5, 3)) {
		t.Errorf("gcd(0,5/3) = %v, want 5/3", g3)
	}
}

func TestSum(t *testing.T) {
	s, err := New(1, 2).Add(New(1, 3))
	if err == nil {
		s, err = s.Add(New(1, 6))
	}
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(One) {
		t.Errorf("sum = %v, want 1", s)
	}
}

// clamp maps an arbitrary int64 into a small nonzero range so quick tests
// never hit spurious overflow. The result is always in [1, 1<<20).
func clamp(v int64) int64 {
	const lim = 1 << 20
	v %= lim
	if v < 0 {
		v = -v
	}
	if v == 0 {
		v = 1
	}
	return v
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a := New(clamp(an), clamp(ad))
		b := New(clamp(bn), clamp(bd))
		return a.MustAdd(b).Equal(b.MustAdd(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDistributesOverAdd(t *testing.T) {
	f := func(an, ad, bn, bd, cn, cd int64) bool {
		a := New(clamp(an)%1000, clamp(ad)%100+1)
		b := New(clamp(bn)%1000, clamp(bd)%100+1)
		c := New(clamp(cn)%1000, clamp(cd)%100+1)
		left := a.MustMul(b.MustAdd(c))
		right := a.MustMul(b).MustAdd(a.MustMul(c))
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDivInvertsMul(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a := New(clamp(an), clamp(ad))
		b := New(clamp(bn), clamp(bd))
		if b.IsZero() {
			return true
		}
		return a.MustMul(b).MustDiv(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGCDDividesBoth(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a := New(clamp(an), clamp(ad)).Abs()
		b := New(clamp(bn), clamp(bd)).Abs()
		g, err := GCDRat(a, b)
		if err != nil || g.IsZero() {
			return err == nil && a.IsZero() && b.IsZero()
		}
		return a.MustDiv(g).IsInt() && b.MustDiv(g).IsInt()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	f := func(an, ad int64) bool {
		a := New(clamp(an), clamp(ad))
		got, err := Parse(a.String())
		return err == nil && got.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
