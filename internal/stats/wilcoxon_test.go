package stats

import (
	"math"
	"testing"
)

func TestWilcoxonKnownRanks(t *testing.T) {
	// Diffs: a-b = {+1, +2, +3, -4, +5}. |d| ranks are 1..5.
	// W+ = 1+2+3+5 = 11, n = 5, mu = 7.5.
	a := []float64{2, 4, 6, 1, 10}
	b := []float64{1, 2, 3, 5, 5}
	r, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 11 || r.N != 5 {
		t.Fatalf("W=%v N=%d, want 11/5", r.W, r.N)
	}
	if r.P < 0.05 {
		t.Fatalf("weak evidence should not be significant: p=%v", r.P)
	}
}

func TestWilcoxonIdenticalPairs(t *testing.T) {
	a := []float64{1, 2, 3}
	r, err := WilcoxonSignedRank(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 1 || r.N != 0 {
		t.Fatalf("identical pairs: %+v", r)
	}
}

func TestWilcoxonDetectsConsistentShift(t *testing.T) {
	rng := NewRNG(77)
	n := 50
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		x := rng.NormFloat64()
		a[i] = x + 0.8
		b[i] = x + 0.1*rng.NormFloat64()
	}
	r, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P >= 0.01 {
		t.Fatalf("consistent shift not detected: p=%v", r.P)
	}
	if r.Z <= 0 {
		t.Fatalf("Z sign wrong for a > b: %v", r.Z)
	}
}

func TestWilcoxonAntisymmetric(t *testing.T) {
	a := []float64{5, 1, 4, 9, 2, 7}
	b := []float64{3, 2, 2, 5, 4, 1}
	r1, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := WilcoxonSignedRank(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Z+r2.Z) > 1e-12 || math.Abs(r1.P-r2.P) > 1e-12 {
		t.Fatalf("not antisymmetric: %+v vs %+v", r1, r2)
	}
}

func TestWilcoxonErrors(t *testing.T) {
	if _, err := WilcoxonSignedRank([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	// One non-zero difference is not enough.
	if _, err := WilcoxonSignedRank([]float64{1, 2}, []float64{1, 3}); err == nil {
		t.Fatal("expected too-few error")
	}
}

func TestWilcoxonAgreesWithTTestDirection(t *testing.T) {
	rng := NewRNG(79)
	n := 40
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = a[i] + 0.3 + 0.05*rng.NormFloat64()
	}
	wr, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if (wr.Z < 0) != (tr.T < 0) {
		t.Fatalf("tests disagree on direction: Z=%v T=%v", wr.Z, tr.T)
	}
	if wr.P >= 0.01 || tr.P >= 0.01 {
		t.Fatalf("both should detect the shift: p=%v / %v", wr.P, tr.P)
	}
}

func TestNormalSF(t *testing.T) {
	cases := []struct{ z, p float64 }{
		{0, 0.5},
		{1.959964, 0.025},
		{2.575829, 0.005},
	}
	for _, c := range cases {
		if got := normalSF(c.z); math.Abs(got-c.p) > 1e-4 {
			t.Errorf("normalSF(%v) = %v, want %v", c.z, got, c.p)
		}
	}
}
