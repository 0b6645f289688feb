package core

import "math"

// The trainer's σ is word2vec.c's, which gensim trains with (§5.4): over
// (−6, 6) the value at the left edge of the dot's bucket, one of 1 000 of
// width 0.012, and exactly 0 or 1 at and beyond ∓6.
const (
	sigmoidBuckets = 1000
	sigmoidMax     = 6
	sigmoidScale   = sigmoidBuckets / (2.0 * sigmoidMax) // buckets per unit of x
	// sigmoidStep is e^−0.012, e^−x's factor from one bucket edge to
	// the next.
	sigmoidStep = 0.9880717128619305401011643123584560990965
)

// sigmoidTable[i] is σ(x) = 1/(1 + e^−x) at x = −6 + 12i/1000, with e^−x
// stepped out from 1 at the middle entry by sigmoidStep, one multiply or
// divide per bucket; a value is within 1e-13 of σ. No math.Exp enters:
// it is assembly on amd64 and Go on 386, the two differ in the last bits
// of about half these values, and a model must be one sha256 on every
// GOARCH, as testdata/golden.json's train stage holds it.
var sigmoidTable = func() (t [sigmoidBuckets]float64) {
	const mid = sigmoidBuckets / 2
	up, down := 1.0, 1.0 // e^−x at entries mid+j and mid−j
	for j := 0; j <= mid; j++ {
		if mid+j < sigmoidBuckets {
			t[mid+j] = 1 / (1 + up)
		}
		t[mid-j] = 1 / (1 + down)
		up *= sigmoidStep
		down /= sigmoidStep
	}
	return t
}()

// sigmoid returns the trainer's σ(x): 1 for x ≥ 6, 0 for x ≤ −6, and in
// between sigmoidTable[int((x+6)·(1000/12))], that arithmetic in float64,
// where a float32 below 6 indexes at most 999. A NaN fails every
// comparison, so it never indexes the table: σ(NaN) is NaN.
func sigmoid(x float32) float64 {
	switch {
	case x > -sigmoidMax && x < sigmoidMax:
		return sigmoidTable[int((float64(x)+sigmoidMax)*sigmoidScale)]
	case x >= sigmoidMax:
		return 1
	case x <= -sigmoidMax:
		return 0
	}
	return math.NaN()
}
