package stats

import "math/bits"

// Alias samples indices proportionally to a fixed non-negative weight
// vector in O(1) per draw (Walker's alias method, built with Vose's
// algorithm). It holds no generator: the table is immutable, so any
// number of goroutines may draw from one table, each with its own RNG.
//
// Weighted draws from the same distributions by binary search and stays
// beside it: internal/synth builds every benchmark world from Weighted's
// seed→sample stream, which must not move.
type Alias struct {
	cols []aliasCol
}

// aliasCol is one column of the table: a draw landing in column i yields
// i when its coin falls below keep, else other.
type aliasCol struct {
	keep  uint32 // P(stay in the column), scaled to [0, 2^32)
	other int32
}

// NewAlias builds a table over len(weights) outcomes. Weights must be
// non-negative with a positive sum.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("stats: NewAlias with empty weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: NewAlias with negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("stats: NewAlias with zero total weight")
	}
	// scaled[i] is outcome i's probability in units of one column, 1/n.
	// Columns start full (they yield their own index whatever the coin
	// says); Vose's pairing then tops every underfull column up from an
	// overfull one.
	scaled := make([]float64, n)
	cols := make([]aliasCol, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		cols[i] = aliasCol{keep: ^uint32(0), other: int32(i)}
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		// scaled[s] < 1, so the product is below 2^32. A zero weight gets
		// keep 0 and is never drawn: columns only ever spill into an
		// outcome that was overfull, hence of positive weight.
		cols[s] = aliasCol{keep: uint32(scaled[s] * (1 << 32)), other: l}
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Whatever is left on either stack is within rounding of one full
	// column (the scaled weights sum to n) and stays full.
	return &Alias{cols: cols}
}

// Draw returns the next sampled index, consuming one Uint64 of rng: the
// high word of its product with the number of outcomes picks the column,
// the low word is the coin.
func (a *Alias) Draw(rng *RNG) int {
	col, coin := bits.Mul64(rng.Uint64(), uint64(len(a.cols)))
	c := a.cols[col]
	if uint32(coin>>32) < c.keep {
		return int(col)
	}
	return int(c.other)
}
