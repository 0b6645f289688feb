package stats

import (
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := Cosine([]float64{1, 2}, []float64{2, 4}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("parallel cosine = %v", got)
	}
	if got := Cosine([]float64{1, 1}, []float64{-1, -1}); !almostEq(got, -1, 1e-12) {
		t.Fatalf("antiparallel cosine = %v", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
}

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Fatalf("Euclidean = %v", got)
	}
}

func TestScale(t *testing.T) {
	y := []float64{7, 9}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale result %v", y)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d", got)
	}
	if got := ArgMax([]float64{2, 2}); got != 0 {
		t.Fatalf("tie ArgMax = %d", got)
	}
}

func TestSumPositive(t *testing.T) {
	if SumPositive(-3) != 0 || SumPositive(3) != 3 || SumPositive(0) != 0 {
		t.Fatal("SumPositive wrong")
	}
}

// Property: Cauchy-Schwarz |cos| <= 1 for arbitrary vectors.
func TestCosineBoundedQuick(t *testing.T) {
	f := func(a, b [8]int8) bool {
		x := make([]float64, 8)
		y := make([]float64, 8)
		for i := 0; i < 8; i++ {
			x[i] = float64(a[i])
			y[i] = float64(b[i])
		}
		c := Cosine(x, y)
		return c <= 1+1e-9 && c >= -1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Euclidean distance satisfies the triangle inequality.
func TestTriangleInequalityQuick(t *testing.T) {
	f := func(a, b, c [4]int8) bool {
		x := make([]float64, 4)
		y := make([]float64, 4)
		z := make([]float64, 4)
		for i := 0; i < 4; i++ {
			x[i], y[i], z[i] = float64(a[i]), float64(b[i]), float64(c[i])
		}
		return Euclidean(x, z) <= Euclidean(x, y)+Euclidean(y, z)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
