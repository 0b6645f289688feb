package stats

import (
	"math"
	"sort"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the cumulative distribution and samples by
// binary search, which is simple, exact and fast enough for simulation
// workloads (O(log n) per draw).
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	if s <= 0 {
		panic("stats: NewZipf with non-positive exponent")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw returns the next rank in [0, n), rank 0 being the most popular.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Prob returns the probability of drawing rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Weighted samples indices proportionally to a fixed non-negative weight
// vector, again via a precomputed CDF.
type Weighted struct {
	cdf []float64
	rng *RNG
}

// NewWeighted builds a sampler over len(weights) outcomes. Weights must be
// non-negative with a positive sum.
func NewWeighted(rng *RNG, weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("stats: NewWeighted with empty weights")
	}
	cdf := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 {
			panic("stats: NewWeighted with negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("stats: NewWeighted with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Weighted{cdf: cdf, rng: rng}
}

// Draw returns the next sampled index.
func (w *Weighted) Draw() int {
	u := w.rng.Float64()
	i := sort.SearchFloat64s(w.cdf, u)
	if i >= len(w.cdf) {
		i = len(w.cdf) - 1
	}
	return i
}
