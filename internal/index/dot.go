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
