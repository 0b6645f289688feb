package stats

import (
	"errors"
	"math"
)

// TTestResult reports the outcome of a paired two-tailed t-test.
type TTestResult struct {
	N        int     // number of pairs
	MeanDiff float64 // mean of (a - b)
	T        float64 // t statistic
	DF       float64 // degrees of freedom (n - 1)
	P        float64 // two-tailed p-value
}

// ErrTTest is returned when the test is undefined for the given inputs.
var ErrTTest = errors.New("stats: t-test undefined for input")

// PairedTTest performs the two-tailed paired Student t-test used by the
// paper (Section 6.4) to compare per-user CTR under the two ad sources.
// a and b must have equal length n >= 2. When every pairwise difference is
// zero, the result has T = 0 and P = 1.
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, errors.Join(ErrTTest, errors.New("length mismatch"))
	}
	n := len(a)
	if n < 2 {
		return TTestResult{}, errors.Join(ErrTTest, errors.New("need at least 2 pairs"))
	}
	d := make([]float64, n)
	for i := range a {
		d[i] = a[i] - b[i]
	}
	md := Mean(d)
	sd := StdDev(d)
	if sd == 0 {
		if md == 0 {
			return TTestResult{N: n, MeanDiff: 0, T: 0, DF: float64(n - 1), P: 1}, nil
		}
		// Non-zero constant difference: infinitely significant.
		return TTestResult{N: n, MeanDiff: md, T: math.Inf(sign(md)), DF: float64(n - 1), P: 0}, nil
	}
	t := md / (sd / math.Sqrt(float64(n)))
	df := float64(n - 1)
	p := 2 * studentTSF(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{N: n, MeanDiff: md, T: t, DF: df, P: p}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTSF returns P(T > t) for the Student t distribution with df
// degrees of freedom, t >= 0, via the regularized incomplete beta function:
// P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2.
func studentTSF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
