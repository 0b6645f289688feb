package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(3)
	var s float64
	const n = 200000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	mean := s / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var s, s2 float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		s += x
		s2 += x * x
	}
	mean := s / n
	varr := s2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(varr-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", varr)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(21)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draws")
	}
}

func TestGammaMean(t *testing.T) {
	r := NewRNG(17)
	for _, alpha := range []float64{0.5, 1, 2, 5} {
		const n = 50000
		var s float64
		for i := 0; i < n; i++ {
			g := r.Gamma(alpha)
			if g < 0 {
				t.Fatalf("negative gamma deviate for alpha=%v", alpha)
			}
			s += g
		}
		mean := s / n
		if math.Abs(mean-alpha) > 0.05*alpha+0.02 {
			t.Fatalf("Gamma(%v) mean = %v, want ~%v", alpha, mean, alpha)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := NewRNG(19)
	alpha := []float64{0.5, 1, 2, 0.1}
	out := make([]float64, 4)
	for i := 0; i < 100; i++ {
		r.Dirichlet(alpha, out)
		var s float64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("negative Dirichlet component %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Dirichlet sum = %v", s)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(23)
	for _, mean := range []float64{0.5, 3, 10, 50} {
		const n = 30000
		var s float64
		for i := 0; i < n; i++ {
			s += float64(r.Poisson(mean))
		}
		got := s / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonNonNegativeQuick(t *testing.T) {
	r := NewRNG(29)
	f := func(m uint8) bool {
		return r.Poisson(float64(m)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(31)
	const n = 100000
	c := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			c++
		}
	}
	frac := float64(c) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}
