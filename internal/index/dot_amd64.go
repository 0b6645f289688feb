package index

// dot32 returns the float32 inner product of two equal-length vectors
// under the lane contract in dot.go.
func dot32(a, b []float32) float32 {
	if len(b) < len(a) {
		panic("index: dot32 length mismatch")
	}
	return dot32Asm(a, b)
}

// dot32x4 scores q against four rows of m, each len(q) wide and starting
// at the element offsets off: out[j] = dot32(q, m[off[j]:off[j]+len(q)]).
func dot32x4(q, m []float32, off *[4]int, out *[4]float32) {
	// A negative offset wraps past last as an unsigned number.
	last := uint(len(m) - len(q))
	if len(q) > len(m) || uint(off[0]) > last || uint(off[1]) > last || uint(off[2]) > last || uint(off[3]) > last {
		panic("index: dot32x4 row outside the matrix")
	}
	dot32x4Asm(q, m, off, out)
}

// The assembly reads len(a) values through the second pointer (resp.
// len(q) from each of four offsets into m) without a bounds check; the
// wrappers above are the check.

//go:noescape
func dot32Asm(a, b []float32) float32

//go:noescape
func dot32x4Asm(q, m []float32, off *[4]int, out *[4]float32)
