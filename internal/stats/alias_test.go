package stats

import (
	"fmt"
	"math"
	"testing"
)

// unigramWeights is the trainer's noise distribution over a Zipf
// vocabulary of n hosts: rank^-0.75.
func unigramWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -0.75)
	}
	return w
}

// tableMass adds up, outcome by outcome, the probability the table's
// columns assign: what Draw samples from, exactly.
func tableMass(a *Alias) []float64 {
	n := float64(len(a.cols))
	mass := make([]float64, len(a.cols))
	for i, c := range a.cols {
		keep := float64(c.keep) / (1 << 32)
		if int(c.other) == i {
			keep = 1
		}
		mass[i] += keep / n
		mass[c.other] += (1 - keep) / n
	}
	return mass
}

// TestAliasTableHoldsTheWeights checks the table itself rather than a
// sample of it: every outcome's mass equals its normalised weight to
// within the 32-bit coin's resolution, at the bench world's vocabulary
// and at the paper's.
func TestAliasTableHoldsTheWeights(t *testing.T) {
	for _, n := range []int{1, 2, 5, 3749, 470000} {
		w := unigramWeights(n)
		if n > 2 {
			w[n/2] = 0 // a host that must never be drawn
		}
		var sum float64
		for _, x := range w {
			sum += x
		}
		mass := tableMass(NewAlias(w))
		for i, got := range mass {
			if want := w[i] / sum; math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d outcome %d: table mass %g, weight %g", n, i, got, want)
			}
		}
		if n > 2 && mass[n/2] != 0 {
			t.Fatalf("n=%d: zero-weight outcome has mass %g", n, mass[n/2])
		}
	}
}

// TestAliasChiSquare draws a million times from the bench world's noise
// distribution and tests the counts against it. The rarest outcome
// expects 67 draws, so the statistic is χ² with n-1 degrees of freedom,
// normal to a good approximation; four sigma rejects one honest run in
// sixteen thousand, and the seed is fixed.
func TestAliasChiSquare(t *testing.T) {
	const n, draws = 3749, 1_000_000
	w := unigramWeights(n)
	var sum float64
	for _, x := range w {
		sum += x
	}
	a, rng := NewAlias(w), NewRNG(11)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	var chi2 float64
	for i, c := range counts {
		want := draws * w[i] / sum
		chi2 += (float64(c) - want) * (float64(c) - want) / want
	}
	if z := (chi2 - (n - 1)) / math.Sqrt(2*(n-1)); math.Abs(z) > 4 {
		t.Fatalf("χ² = %.0f over %d degrees of freedom (z = %.2f)", chi2, n-1, z)
	}
}

func TestAliasSmallTables(t *testing.T) {
	rng := NewRNG(5)
	one := NewAlias([]float64{3})
	zero := NewAlias([]float64{0, 1, 0})
	equal := NewAlias([]float64{2, 2})
	var heads int
	for i := 0; i < 100000; i++ {
		if v := one.Draw(rng); v != 0 {
			t.Fatalf("single outcome drew %d", v)
		}
		if v := zero.Draw(rng); v != 1 {
			t.Fatalf("drew zero-weight outcome %d", v)
		}
		heads += equal.Draw(rng)
	}
	if math.Abs(float64(heads)/100000-0.5) > 0.01 {
		t.Fatalf("two equal outcomes split %d / 100000", heads)
	}
}

// TestAliasStreamIsTheGenerators: the table holds no state, so equal
// seeds give equal streams and each draw consumes exactly one Uint64.
func TestAliasStreamIsTheGenerators(t *testing.T) {
	a := NewAlias(unigramWeights(100))
	r1, r2, plain := NewRNG(9), NewRNG(9), NewRNG(9)
	for i := 0; i < 1000; i++ {
		if x, y := a.Draw(r1), a.Draw(r2); x != y {
			t.Fatalf("draw %d: %d vs %d from equal seeds", i, x, y)
		}
		plain.Uint64()
	}
	if r1.Uint64() != plain.Uint64() {
		t.Fatal("a draw did not consume exactly one Uint64")
	}
}

func TestAliasPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewAlias(nil) },
		func() { NewAlias([]float64{-1, 2}) },
		func() { NewAlias([]float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

var drawSink int

// BenchmarkNoiseDraw is one negative sample from the trainer's noise
// distribution by CDF binary search (Weighted) and by alias table, at the
// bench world's vocabulary and at the paper's 470K hostnames.
func BenchmarkNoiseDraw(b *testing.B) {
	for _, n := range []int{3749, 470000} {
		w := unigramWeights(n)
		b.Run(fmt.Sprintf("cdf/%d", n), func(b *testing.B) {
			s := NewWeighted(NewRNG(1), w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drawSink += s.Draw()
			}
		})
		b.Run(fmt.Sprintf("alias/%d", n), func(b *testing.B) {
			s, rng := NewAlias(w), NewRNG(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drawSink += s.Draw(rng)
			}
		})
	}
}
