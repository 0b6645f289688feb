// Package stats provides the deterministic random-number generation,
// sampling, descriptive-statistics, hypothesis-testing and vector-math
// primitives shared by every other hostprof package.
//
// Everything in this package is seeded explicitly: two runs with the same
// seed produce bit-identical results, which makes the paper's experiments
// reproducible and the property-based tests meaningful.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random generator based on
// splitmix64. It is not cryptographically secure; it exists so that
// simulations do not depend on process-global random state.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
	// cached spare normal deviate for NormFloat64 (Box-Muller).
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new RNG whose stream is independent of r's future output.
// It is used to hand child components their own deterministic streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal deviate using the Box-Muller
// transform with caching of the spare value.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Gamma returns a deviate from the Gamma distribution with shape alpha and
// scale 1, using the Marsaglia-Tsang method. alpha must be positive.
func (r *RNG) Gamma(alpha float64) float64 {
	if alpha <= 0 {
		panic("stats: Gamma called with non-positive alpha")
	}
	if alpha < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills out with a sample from the Dirichlet distribution whose
// concentration parameters are alpha. out and alpha must have the same
// length. The result sums to 1.
func (r *RNG) Dirichlet(alpha, out []float64) {
	if len(alpha) != len(out) {
		panic("stats: Dirichlet length mismatch")
	}
	var sum float64
	for i, a := range alpha {
		g := r.Gamma(a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// Poisson returns a Poisson deviate with the given mean using Knuth's
// method for small means and a normal approximation above 30.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(mean + math.Sqrt(mean)*r.NormFloat64() + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
