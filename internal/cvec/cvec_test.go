package cvec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	v := New(16)
	if len(v) != 16 {
		t.Fatalf("len = %d, want 16", len(v))
	}
	for i, c := range v {
		if c != 0 {
			t.Fatalf("v[%d] = %v, want 0", i, c)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := Random(rng, 32)
	w := v.Clone()
	w[0] = 42
	if v[0] == 42 {
		t.Fatal("Clone shares storage with original")
	}
	if MaxDiff(v[1:], w[1:]) != 0 {
		t.Fatal("Clone altered other elements")
	}
}

func TestScaleAndZero(t *testing.T) {
	v := Vec{1, 2i, 3 + 4i}
	v.Scale(2i)
	want := Vec{2i, -4, -8 + 6i}
	if MaxDiff(v, want) > 1e-15 {
		t.Fatalf("Scale: got %v want %v", v, want)
	}
	v.Scale(0)
	if v.L2() != 0 {
		t.Fatal("Scale(0) left nonzero entries")
	}
}

func TestAXPYDot(t *testing.T) {
	v := Vec{1, 2, 3}
	x := Vec{1i, 1i, 1i}
	v.AXPY(2, x)
	want := Vec{1 + 2i, 2 + 2i, 3 + 2i}
	if MaxDiff(v, want) > 1e-15 {
		t.Fatalf("AXPY: got %v want %v", v, want)
	}
	d := Vec{1, 1i}.Dot(Vec{1i, 1i})
	if d != (1i - 1) {
		t.Fatalf("Dot = %v, want (-1+1i)", d)
	}
}

func TestNorms(t *testing.T) {
	v := Vec{3 + 4i, 0}
	if got := v.L2(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	if got := v.MaxAbs(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("MaxAbs = %v, want 5", got)
	}
}

func TestRelErr(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{1, 2, 3}
	if RelErr(v, w) != 0 {
		t.Fatal("RelErr of identical vectors != 0")
	}
	w2 := Vec{1 + 1e-8i, 2, 3}
	if e := RelErr(v, w2); e <= 0 || e > 1e-7 {
		t.Fatalf("RelErr = %v, want small positive", e)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Vec{1}.AXPY(1, Vec{1, 2}) },
		func() { Vec{1}.Dot(Vec{1, 2}) },
		func() { MaxDiff(Vec{1}, Vec{1, 2}) },
		func() { RelErr(Vec{1}, Vec{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic on length mismatch", i)
				}
			}()
			f()
		}()
	}
}

// Property: L2 is absolutely homogeneous, |a·v| = |a|·|v|.
func TestQuickL2Homogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(scale float64) bool {
		if math.IsInf(scale, 0) || math.Abs(scale) > 1e100 {
			return true
		}
		v := Random(rng, 64)
		want := v.L2() * math.Abs(scale)
		v.Scale(complex(scale, 0))
		return math.Abs(v.L2()-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
