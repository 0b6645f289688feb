package index

// The scan kernel's summation contract. A dot product of two
// equal-length float32 vectors keeps four partial sums — lane j adds the
// products of elements j, j+4, j+8, … in index order, each product
// rounded to float32 before it is added — folds the len%4 trailing
// elements into lane 0, and reduces ((s0+s1)+s2)+s3. The amd64 assembly
// (dot_amd64.s) holds the four lanes in one SSE register; the portable
// code below spells them out. Both perform the same IEEE-754 operations
// in the same order, so a score has the same bits whichever ran — the
// property the pinned goldens, the ANN/exact score equality and the
// oracle tests rest on.

// dot32Portable is the kernel contract in plain Go: the implementation
// on architectures without assembly, and the oracle the assembly is
// tested against. The float32 conversions pin the rounding of each
// product, which the language otherwise lets a compiler fuse into the
// add (arm64 does).
func dot32Portable(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a) &^ 3
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	for i := 0; i < n; i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	for i := n; i < len(a); i++ {
		s0 += float32(a[i] * b[i])
	}
	return s0 + s1 + s2 + s3
}

// dot32x4Portable scores q against four rows of m, each len(q) wide and
// starting at the element offsets off, in any order and repeated or not:
// out[j] = dot32Portable(q, m[off[j]:off[j]+len(q)]).
func dot32x4Portable(q, m []float32, off *[4]int, out *[4]float32) {
	d := len(q)
	for j, o := range off {
		out[j] = dot32Portable(q, m[o:o+d])
	}
}

// The batch scan's four-query form. interleave4 lays four queries out
// chunk by chunk — elements 4c..4c+3 of query 0, then of queries 1, 2
// and 3 — so that the AVX2 kernel (dot32q4x4) loads each row chunk once
// for all four. Each (query, row) pair still takes the contract above
// lane for lane, one MUL and one ADD per element and the same reduce,
// so every score has the bits dot32x4 gives it.

// interleave4 writes the four queries q, each len(dst)/4 wide (a
// multiple of 4), into dst chunk-interleaved.
func interleave4(dst []float32, q *[4][]float32) {
	for c := 0; c < len(dst)/4; c += 4 {
		for i, v := range q {
			copy(dst[4*c+4*i:4*c+4*i+4], v[c:c+4])
		}
	}
}

// dot32q4 scores the four queries q against four rows of m at the
// element offsets off: out[4*i+j] = dot32(q[i], m[off[j]:off[j]+len(q[i])]).
// With AVX2 and a width that is a multiple of 4 it runs dot32q4x4 over qi,
// which holds q interleaved; otherwise it calls dot32x4 once per query.
func dot32q4(q *[4][]float32, qi, m []float32, off *[4]int, out *[16]float32) {
	if useAVX2 && len(q[0])%4 == 0 {
		dot32q4x4(qi, m, off, out)
		return
	}
	for i, v := range q {
		dot32x4(v, m, off, (*[4]float32)(out[4*i:4*i+4]))
	}
}
