package index

// dot32 returns the float32 inner product of two equal-length vectors
// under the lane contract in dot.go.
func dot32(a, b []float32) float32 {
	if len(b) < len(a) {
		panic("index: dot32 length mismatch")
	}
	return dot32Asm(a, b)
}

// dot32x4 scores q against four consecutive packed rows:
// out[j] = dot32(q, rows[j*len(q):(j+1)*len(q)]).
func dot32x4(q, rows []float32, out *[4]float32) {
	if len(rows) < 4*len(q) {
		panic("index: dot32x4 needs four packed rows")
	}
	dot32x4Asm(q, rows, out)
}

// The assembly reads len(a) (resp. 4*len(q)) values through the second
// pointer without a bounds check; the wrappers above are the check.

//go:noescape
func dot32Asm(a, b []float32) float32

//go:noescape
func dot32x4Asm(q, rows []float32, out *[4]float32)
