package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance 4; sample variance 4*8/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("variance of <2 samples should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2}
	if got := Percentile(xs, 50); !almostEq(got, 1.5, 1e-12) {
		t.Fatalf("P50 of {1,2} = %v, want 1.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestCCDFBasic(t *testing.T) {
	pts := CCDF([]float64{1, 2, 2, 3})
	want := []CCDFPoint{{1, 1}, {2, 0.75}, {3, 0.25}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p.X != want[i].X || !almostEq(p.Frac, want[i].Frac, 1e-12) {
			t.Errorf("point %d = %+v, want %+v", i, p, want[i])
		}
	}
}

func TestCCDFEmpty(t *testing.T) {
	if CCDF(nil) != nil {
		t.Fatal("CCDF(nil) should be nil")
	}
}

func TestCCDFMonotonic(t *testing.T) {
	r := NewRNG(123)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Floor(r.Float64() * 20)
	}
	pts := CCDF(xs)
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatal("X not strictly increasing")
		}
		if pts[i].Frac >= pts[i-1].Frac {
			t.Fatal("Frac not strictly decreasing")
		}
	}
	if pts[0].Frac != 1 {
		t.Fatalf("first Frac = %v, want 1 (minimum is >= itself)", pts[0].Frac)
	}
}

// Property: each CCDF point's Frac is the share of samples >= its X.
func TestCCDFConsistencyQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v % 16)
		}
		for _, p := range CCDF(xs) {
			var c int
			for _, v := range xs {
				if v >= p.X {
					c++
				}
			}
			if !almostEq(p.Frac, float64(c)/float64(len(xs)), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(raw []uint8, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		a := float64(p1 % 101)
		b := float64(p2 % 101)
		if a > b {
			a, b = b, a
		}
		pa := Percentile(xs, a)
		pb := Percentile(xs, b)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return pa <= pb+1e-9 && pa >= s[0]-1e-9 && pb <= s[len(s)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
