package stats

import "math"

// Widen returns a float64 copy of a float32 vector — an embedding row, as
// the model stores it — for the float64 arithmetic below.
func Widen(v []float32) []float64 {
	w := make([]float64, len(v))
	for i, x := range v {
		w[i] = float64(x)
	}
	return w
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	_ = b[len(a)-1] // bounds hint
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Norm returns the L2 norm of a.
func Norm(a []float64) float64 {
	var s float64
	for _, x := range a {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b, or 0 when either vector
// has zero norm.
func Cosine(a, b []float64) float64 {
	na := Norm(a)
	nb := Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Euclidean returns the L2 distance between a and b.
func Euclidean(a, b []float64) float64 {
	_ = b[len(a)-1]
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// ArgMax returns the index of the largest element of xs, or -1 for an
// empty slice. Ties resolve to the lowest index.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// SumPositive returns max(x, 0), the [x]+ operator from Equation (3) of
// the paper.
func SumPositive(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
