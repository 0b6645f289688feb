package core

// The trainer's kernel contract. One SGD step of Equation (2) on a
// (centre, target) sample is a dot product of two float32 rows, a sigmoid
// on that dot widened to float64, and one pass that moves both rows; the
// two passes over the rows are the kernels below.
//
// sgnsDot keeps eight partial sums: lane j adds the products of elements
// j, j+8, j+16, … in index order, each product rounded to float32 before
// it is added. What the groups of eight leave is, if four or more
// elements, one group of four added to lanes 0–3, then up to three
// elements folded into lane 0. The reduction adds lane j+4 to lane j for
// j = 0..3 and returns ((t0+t1)+t2)+t3.
//
// sgnsUpdate is elementwise: neu[i] += g·o[i], then o[i] += g·c[i] on the
// o[i] it read, each product rounded to float32 before its add.
//
// The amd64 assembly (sgns_amd64.s) holds the dot's lanes in two SSE
// registers, two add chains in flight; the portable code below spells
// them out. Both perform the same IEEE-754 operations in the same order,
// so from equal rows they leave equal bits — except that a NaN is only
// promised to be a NaN, sign and payload being the processor's — and one
// worker trains the same model whichever ran.

// sgnsDotPortable is the dot contract in plain Go: the implementation on
// architectures without assembly and the oracle the assembly is tested
// against. The float32 conversions pin the rounding of each product,
// which the language otherwise lets a compiler fuse into the add.
func sgnsDotPortable(a, b []float32) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	_ = b[n-1]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
		s4 += float32(a[i+4] * b[i+4])
		s5 += float32(a[i+5] * b[i+5])
		s6 += float32(a[i+6] * b[i+6])
		s7 += float32(a[i+7] * b[i+7])
	}
	if i+4 <= n {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
		i += 4
	}
	for ; i < n; i++ {
		s0 += float32(a[i] * b[i])
	}
	s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
	return s0 + s1 + s2 + s3
}

// sgnsUpdatePortable is the update contract in plain Go; c, o and neu
// have one length.
func sgnsUpdatePortable(g float32, c, o, neu []float32) {
	o, neu = o[:len(c)], neu[:len(c)]
	for i, ci := range c {
		oi := o[i]
		neu[i] += float32(g * oi)
		o[i] = oi + float32(g*ci)
	}
}
