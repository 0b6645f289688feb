package stats

import (
	"errors"
	"math"
	"sort"
)

// WilcoxonResult reports the two-sided Wilcoxon signed-rank test (normal
// approximation with tie correction), the distribution-free counterpart
// of the paired t-test the paper uses in Section 6.4.
type WilcoxonResult struct {
	// W is the sum of ranks of positive differences (a - b).
	W float64
	// N is the number of non-zero differences used.
	N int
	// Z is the normal approximation statistic.
	Z float64
	// P is the two-sided p-value.
	P float64
}

// ErrWilcoxon is returned when the test is undefined for the inputs.
var ErrWilcoxon = errors.New("stats: Wilcoxon undefined for input")

// WilcoxonSignedRank tests whether the paired samples a and b differ in
// location. Zero differences are dropped (Wilcoxon's original
// treatment); ties among |differences| receive average ranks with the
// usual variance correction.
func WilcoxonSignedRank(a, b []float64) (WilcoxonResult, error) {
	if len(a) != len(b) {
		return WilcoxonResult{}, errors.Join(ErrWilcoxon, errors.New("length mismatch"))
	}
	type dr struct {
		abs float64
		pos bool
	}
	var ds []dr
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue
		}
		ds = append(ds, dr{math.Abs(d), d > 0})
	}
	n := len(ds)
	if n < 2 {
		if n == 0 {
			// All pairs tied: no evidence of difference.
			return WilcoxonResult{W: 0, N: 0, Z: 0, P: 1}, nil
		}
		return WilcoxonResult{}, errors.Join(ErrWilcoxon, errors.New("too few non-zero differences"))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].abs < ds[j].abs })

	var wPlus float64
	var tieTerm float64
	for i := 0; i < n; {
		j := i
		for j < n && ds[j].abs == ds[i].abs {
			j++
		}
		avg := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if ds[k].pos {
				wPlus += avg
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	nf := float64(n)
	mu := nf * (nf + 1) / 4
	sigma2 := nf*(nf+1)*(2*nf+1)/24 - tieTerm/48
	if sigma2 <= 0 {
		return WilcoxonResult{W: wPlus, N: n, Z: 0, P: 1}, nil
	}
	diff := wPlus - mu
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	z := diff / math.Sqrt(sigma2)
	p := 2 * normalSF(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return WilcoxonResult{W: wPlus, N: n, Z: z, P: p}, nil
}

// normalSF returns P(Z > z) for the standard normal distribution.
func normalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
