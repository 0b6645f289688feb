package index

import (
	"math"
	"math/rand"
	"testing"
)

// kernelDims covers an empty main loop, every tail length, and the
// dimensions the models run at.
var kernelDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 100, 128, 129}

// assertKernelsAgree checks dot32 and dot32x4 against the portable
// oracle, and dot32 against itself with its operands swapped, bit for
// bit, on q and four rows laid out back to back — the exact scan's case.
func assertKernelsAgree(t *testing.T, what string, q, rows []float32) {
	t.Helper()
	d := len(q)
	var got, want [4]float32
	off := [4]int{0, d, 2 * d, 3 * d}
	dot32x4(q, rows, &off, &got)
	dot32x4Portable(q, rows, &off, &want)
	for j := 0; j < 4; j++ {
		row := rows[j*d : j*d+d]
		one := dot32(q, row)
		ref := dot32Portable(q, row)
		if math.Float32bits(one) != math.Float32bits(ref) {
			t.Fatalf("%s dim %d row %d: dot32 = %x, portable = %x", what, d, j, math.Float32bits(one), math.Float32bits(ref))
		}
		// A build stores an edge's score once for both of its directions.
		if back := dot32(row, q); math.Float32bits(back) != math.Float32bits(one) {
			t.Fatalf("%s dim %d row %d: dot32(q, row) = %x, dot32(row, q) = %x", what, d, j, math.Float32bits(one), math.Float32bits(back))
		}
		if math.Float32bits(got[j]) != math.Float32bits(ref) || math.Float32bits(want[j]) != math.Float32bits(ref) {
			t.Fatalf("%s dim %d row %d: dot32x4 = %x (portable x4 %x), single-row portable = %x",
				what, d, j, math.Float32bits(got[j]), math.Float32bits(want[j]), math.Float32bits(ref))
		}
	}
}

// TestDotKernelsBitEqualPortable is the lane contract's oracle test:
// whatever dot32/dot32x4 compile to on this architecture returns the
// bits of the portable Go code.
func TestDotKernelsBitEqualPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	fill := func(v []float32, gen func() float32) {
		for i := range v {
			v[i] = gen()
		}
	}
	uniform := func() float32 { return rng.Float32()*2 - 1 }
	gens := map[string]func() float32{
		"uniform": uniform,
		// Wide exponent range: partial sums cancel and round differently
		// under any other summation order.
		"wide": func() float32 { return uniform() * float32(math.Pow(2, float64(rng.Intn(40)-20))) },
		// Denormal products and sums (no flush-to-zero on either path).
		"denormal": func() float32 { return uniform() * 1e-22 },
		"signed zeros": func() float32 {
			if rng.Intn(2) == 0 {
				return float32(math.Copysign(0, -1))
			}
			return 0
		},
		"mostly zero": func() float32 {
			if rng.Intn(4) == 0 {
				return uniform()
			}
			return float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
		},
	}
	for what, gen := range gens {
		for _, d := range kernelDims {
			for trial := 0; trial < 20; trial++ {
				// Slice both operands out of larger buffers at odd
				// offsets: the kernels must not assume 16-byte alignment.
				qOff, rOff := rng.Intn(4), rng.Intn(4)
				qBuf := make([]float32, d+qOff)
				rBuf := make([]float32, 4*d+rOff)
				fill(qBuf, gen)
				fill(rBuf, gen)
				assertKernelsAgree(t, what, qBuf[qOff:], rBuf[rOff:])
			}
		}
	}
	// -0 survives only if every term is -0·+x or the like; the all-zero
	// product sum is +0 on both paths.
	negZero := float32(math.Copysign(0, -1))
	if got := dot32([]float32{negZero, negZero}, []float32{1, 1}); math.Float32bits(got) != 0 {
		t.Fatalf("dot32(-0,-0 · 1,1) = %x, want +0", math.Float32bits(got))
	}
}

// TestDotKernelsRejectShortOperands pins the bounds check in front of
// the assembly, which reads through raw pointers.
func TestDotKernelsRejectShortOperands(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("dot32 with a short second operand", func() { dot32(make([]float32, 8), make([]float32, 7)) })
	mustPanic("dot32x4 with a row past the end", func() {
		dot32x4(make([]float32, 8), make([]float32, 31), &[4]int{0, 8, 16, 24}, new([4]float32))
	})
	mustPanic("dot32x4 with a negative offset", func() {
		dot32x4(make([]float32, 8), make([]float32, 32), &[4]int{0, -1, 16, 24}, new([4]float32))
	})
}
