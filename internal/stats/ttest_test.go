package stats

import (
	"math"
	"testing"
)

func TestRegIncBetaEdges(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Fatalf("I_0 = %v", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Fatalf("I_1 = %v", got)
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a)
	for _, c := range []struct{ a, b, x float64 }{
		{2, 3, 0.4}, {0.5, 0.5, 0.3}, {5, 1, 0.9}, {10, 10, 0.5},
	} {
		l := RegIncBeta(c.a, c.b, c.x)
		r := 1 - RegIncBeta(c.b, c.a, 1-c.x)
		if !almostEq(l, r, 1e-10) {
			t.Errorf("symmetry broken at %+v: %v vs %v", c, l, r)
		}
	}
}

func TestRegIncBetaUniform(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.99} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestStudentTKnownValues(t *testing.T) {
	// Reference values from scipy.stats.t.sf(t, df)*2 (two-tailed).
	cases := []struct {
		t, df, p float64
	}{
		{2.0, 10, 0.07338803},
		{1.0, 5, 0.36321746},
		{2.576, 1000, 0.01011343},
		{0.0, 7, 1.0},
	}
	for _, c := range cases {
		got := 2 * studentTSF(c.t, c.df)
		if got > 1 {
			got = 1
		}
		if !almostEq(got, c.p, 1e-4) {
			t.Errorf("p(t=%v, df=%v) = %v, want %v", c.t, c.df, got, c.p)
		}
	}
}

func TestPairedTTestIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	res, err := PairedTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.P != 1 {
		t.Fatalf("identical samples: T=%v P=%v", res.T, res.P)
	}
}

func TestPairedTTestKnown(t *testing.T) {
	// Diffs are {2,3,4,5,6}: mean 4, sample sd sqrt(2.5),
	// so t = 4 / (sqrt(2.5)/sqrt(5)) = 4*sqrt(2) = 5.65685..., df = 4.
	a := []float64{3, 4, 5, 6, 7}
	b := []float64{1, 1, 1, 1, 1}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.T, 4*math.Sqrt2, 1e-9) {
		t.Fatalf("T = %v, want %v", res.T, 4*math.Sqrt2)
	}
	// Cross-check P against direct numeric integration of the t density.
	want := 2 * tSFNumeric(res.T, res.DF)
	if !almostEq(res.P, want, 1e-6) {
		t.Fatalf("P = %v, numeric integration gives %v", res.P, want)
	}
	if res.P >= 0.05 {
		t.Fatal("should be significant at 0.05")
	}
}

// tSFNumeric integrates the Student-t density from t to a large bound with
// Simpson's rule, as an implementation-independent reference.
func tSFNumeric(tv, df float64) float64 {
	lg1, _ := math.Lgamma((df + 1) / 2)
	lg2, _ := math.Lgamma(df / 2)
	c := math.Exp(lg1-lg2) / math.Sqrt(df*math.Pi)
	pdf := func(x float64) float64 {
		return c * math.Pow(1+x*x/df, -(df+1)/2)
	}
	const hi = 200.0
	const n = 200000
	h := (hi - tv) / n
	sum := pdf(tv) + pdf(hi)
	for i := 1; i < n; i++ {
		x := tv + float64(i)*h
		if i%2 == 1 {
			sum += 4 * pdf(x)
		} else {
			sum += 2 * pdf(x)
		}
	}
	return sum * h / 3
}

func TestPairedTTestNotSignificant(t *testing.T) {
	a := []float64{1.0, 2.0, 3.0, 4.0, 5.0}
	b := []float64{1.1, 1.9, 3.2, 3.9, 5.1}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.05 {
		t.Fatalf("tiny noise should not be significant, p=%v", res.P)
	}
}

func TestPairedTTestErrors(t *testing.T) {
	if _, err := PairedTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := PairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Fatal("expected too-few-pairs error")
	}
}

func TestPairedTTestConstantShift(t *testing.T) {
	a := []float64{2, 3, 4}
	b := []float64{1, 2, 3}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.T, 1) || res.P != 0 {
		t.Fatalf("constant shift: T=%v P=%v, want +Inf/0", res.T, res.P)
	}
}

func TestPairedTTestSymmetric(t *testing.T) {
	a := []float64{5, 1, 4, 2, 8}
	b := []float64{2, 2, 2, 2, 2}
	r1, _ := PairedTTest(a, b)
	r2, _ := PairedTTest(b, a)
	if !almostEq(r1.T, -r2.T, 1e-12) || !almostEq(r1.P, r2.P, 1e-12) {
		t.Fatalf("t-test not antisymmetric: %+v vs %+v", r1, r2)
	}
}
