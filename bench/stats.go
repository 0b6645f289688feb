package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the sample
// at or below it. Nearest rank never interpolates, so a reported latency
// is always one that a request actually saw (internal/stats.Percentile
// interpolates). xs is not reordered: window order is arrival order.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	return s[rank-1]
}

// median is the 50th percentile with the usual midpoint rule for even
// samples; it is used on small sets of repeated measurements, where the
// midpoint halves the step between neighbours.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bestWindow splits xs, in arrival order, into consecutive windows of
// size window, takes each full window's p-th percentile and returns the
// lowest. The boxes this runs on alternate, every few hundred
// milliseconds, between a fast state and one about half again as slow
// (a neighbour on the sibling hardware thread), and spend a different
// share of every run in each; a statistic over the whole phase moves
// with that share by 15 to 20%. The fast state is tight and is what a
// code change moves, and a window short enough to fit inside it
// measures it; a cost the program pays in every window still shows in
// the best one. A trailing partial window is dropped; with fewer
// samples than one window the whole sample is the window.
func bestWindow(xs []float64, window int, p float64) float64 {
	if window <= 0 || len(xs) <= window {
		return percentile(xs, p)
	}
	best := math.Inf(1)
	for lo := 0; lo+window <= len(xs); lo += window {
		best = min(best, percentile(xs[lo:lo+window], p))
	}
	return best
}

// quartiles returns Q1, the median and Q3 by the same method as
// Python's statistics.quantiles(xs, n=4) (exclusive), which the driver
// uses to judge spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
