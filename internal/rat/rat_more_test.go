package rat

import "testing"

func TestAbs(t *testing.T) {
	if !New(-5, 3).Abs().Equal(New(5, 3)) {
		t.Error("abs of negative")
	}
	if !New(5, 3).Abs().Equal(New(5, 3)) {
		t.Error("abs of positive")
	}
}

func TestSign(t *testing.T) {
	cases := []struct {
		r Rat
		w int
	}{{New(1, 2), 1}, {New(-1, 2), -1}, {Zero, 0}}
	for _, c := range cases {
		if c.r.Sign() != c.w {
			t.Errorf("Sign(%v) = %d, want %d", c.r, c.r.Sign(), c.w)
		}
	}
}

func TestCmpHugeOperandsFallback(t *testing.T) {
	// Operands whose cross-products overflow fall back to float compare.
	big1 := New(1<<62, 3)
	big2 := New(1<<62, 5)
	if big1.Cmp(big2) != 1 {
		t.Error("2^62/3 > 2^62/5")
	}
	if big2.Cmp(big1) != -1 {
		t.Error("symmetric comparison")
	}
}

func TestMustOpsPanicOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMul must panic on overflow")
		}
	}()
	FromInt(1 << 62).MustMul(FromInt(4))
}

func TestSumPropagatesOverflow(t *testing.T) {
	if _, err := FromInt(1 << 62).Add(FromInt(1 << 62)); err == nil {
		t.Error("sum overflow undetected")
	}
}

func TestGCDRatOverflow(t *testing.T) {
	// LCM of denominators overflows.
	a := New(1, (1<<62)+1)
	b := New(1, (1<<62)-1)
	if _, err := GCDRat(a, b); err == nil {
		t.Error("gcd denominator lcm overflow undetected")
	}
}
