package core

import (
	"math"
	"math/big"
	"sort"
	"testing"
)

// sigmoidPrec is the precision TestSigmoidTable computes σ at, far past
// float64's 53 bits, so that rounding the result is rounding σ.
const sigmoidPrec = 256

// bigExp returns e^x to about sigmoidPrec bits: a Taylor series at
// x/2^16, squared sixteen times. No math.Exp enters, so it is the same
// on every GOARCH.
func bigExp(x *big.Float) *big.Float {
	r := new(big.Float).SetPrec(sigmoidPrec).SetMantExp(x, -16)
	sum := new(big.Float).SetPrec(sigmoidPrec).SetInt64(1)
	term := new(big.Float).SetPrec(sigmoidPrec).SetInt64(1)
	for n := int64(1); n < 40; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
	}
	for range 16 {
		sum.Mul(sum, sum)
	}
	return sum
}

// sigmoidEntry returns σ(−6 + 12i/1000) rounded to the nearest float64.
func sigmoidEntry(i int) float64 {
	x := new(big.Float).SetPrec(sigmoidPrec).SetInt64(int64(6000 - 12*i)) // −x·1000
	x.Quo(x, new(big.Float).SetInt64(1000))
	e := bigExp(x)
	one := new(big.Float).SetInt64(1)
	f, _ := new(big.Float).SetPrec(sigmoidPrec).Quo(one, e.Add(e, one)).Float64()
	return f
}

// TestSigmoidTable holds sigmoidTable to σ at each bucket's left edge,
// within 1e-13 relative (measured: below 2e-14), ½ exactly in the middle
// bucket, and sigmoid to its rule: 1 and 0 at ±6 exactly and beyond,
// ±Inf included; the float32 values next to ±6 inside the range in the
// last and first buckets; around every bucket edge one of the two buckets
// it separates, never decreasing, and a bucket's midpoint in that
// bucket; ±0 in the middle bucket; and NaN for NaN.
func TestSigmoidTable(t *testing.T) {
	var worst float64
	for i, got := range sigmoidTable {
		want := sigmoidEntry(i)
		worst = max(worst, math.Abs(got-want)/want)
	}
	t.Logf("worst relative error of a table entry: %.3g", worst)
	if !(worst <= 1e-13) {
		t.Fatalf("a table entry is %.3g from σ, relative", worst)
	}
	if !sort.Float64sAreSorted(sigmoidTable[:]) || sigmoidTable[sigmoidBuckets/2] != 0.5 {
		t.Fatal("sigmoidTable is not increasing through σ(0) = ½")
	}

	// bucket is the table index sigmoid read for x.
	bucket := func(x float32) int {
		y := sigmoid(x)
		i := sort.SearchFloat64s(sigmoidTable[:], y)
		if i == sigmoidBuckets || sigmoidTable[i] != y {
			t.Fatalf("σ(%v) = %v is no table entry", x, y)
		}
		return i
	}
	next := func(x float32, n int) float32 {
		for ; n > 0; n-- {
			x = math.Nextafter32(x, 7)
		}
		for ; n < 0; n++ {
			x = math.Nextafter32(x, -7)
		}
		return x
	}
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	for _, c := range []struct {
		x    float32
		want float64
	}{
		{6, 1}, {-6, 0}, {next(6, 1), 1}, {next(-6, -1), 0}, {inf, 1}, {-inf, 0}, {math.MaxFloat32, 1},
		{next(6, -1), sigmoidTable[sigmoidBuckets-1]}, {next(-6, 1), sigmoidTable[0]},
		{0, 0.5}, {negZero, 0.5},
	} {
		if got := sigmoid(c.x); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("σ(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := sigmoid(float32(math.NaN())); !math.IsNaN(got) {
		t.Errorf("σ(NaN) = %v, want NaN", got)
	}
	for k := 0; k < sigmoidBuckets; k++ {
		if got := bucket(float32(-6 + 12*(float64(k)+0.5)/sigmoidBuckets)); got != k {
			t.Fatalf("bucket %d's midpoint fell in bucket %d", k, got)
		}
		if k == 0 {
			continue
		}
		edge := float32(-6 + 12*float64(k)/sigmoidBuckets)
		prev := k - 1
		for n := -2; n <= 2; n++ {
			got := bucket(next(edge, n))
			if got < prev || got > k {
				t.Fatalf("%d float32s from edge %d (%v): bucket %d after %d", n, k, edge, got, prev)
			}
			prev = got
		}
	}
}
