package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameFloat32 is the contract's equality: the same bits, or both NaN.
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// sgnsPaths runs f once per kernel pair that sgnsDotRows and
// sgnsUpdateRows can take on this machine, through sgnsPath: on amd64
// the SSE2 pair and, where the CPU has AVX, the AVX pair; elsewhere the
// portable pair alone.
func sgnsPaths(f func(path string)) {
	path := sgnsPath
	defer func() { sgnsPath = path }()
	paths := []int{path}
	if path == sgnsAVX {
		paths = []int{sgnsSSE2, sgnsAVX}
	}
	for _, p := range paths {
		sgnsPath = p
		f([...]string{"portable", "sse2", "avx"}[p])
	}
}

// copyAt returns a copy of src that starts skew float32s into its
// allocation, so skews 0 to 3 put it at every 4-byte offset from a
// 16-byte boundary.
func copyAt(src []float32, skew int) []float32 {
	return append(make([]float32, skew, skew+len(src)), src...)[skew:]
}

// assertSGNSKernelsAgree runs sgnsDotRows and sgnsUpdateRows, the
// latter with centre off and on — on every path sgnsPaths takes, each
// over copies of c, m and neu at every skew copyAt makes: the kernels
// must not assume alignment — and the portable pair over copies of the
// same operands and wants the same dots and the same m, neu and c
// afterwards, every element of m included; c must come back untouched
// with centre off. The operands themselves are left as they were.
func assertSGNSKernelsAgree(t *testing.T, what string, g, c, m []float32, off []int, neu []float32) {
	t.Helper()
	d := len(c)
	want := make([]float32, len(off))
	sgnsDotRowsPortable(c, m, off, want)
	for _, centre := range []bool{false, true} {
		cWant, mWant, neuWant := append([]float32(nil), c...), append([]float32(nil), m...), append([]float32(nil), neu...)
		sgnsUpdateRowsPortable(g, cWant, mWant, off, neuWant, centre)
		if !centre {
			for i := range c {
				if math.Float32bits(cWant[i]) != math.Float32bits(c[i]) {
					t.Fatalf("%s dim %d: portable update wrote c[%d] with centre off", what, d, i)
				}
			}
		}
		sgnsPaths(func(path string) {
			t.Helper()
			for skew := 0; skew < 4; skew++ {
				cGot, mGot, neuGot := copyAt(c, skew), copyAt(m, (skew+1)%4), copyAt(neu, (skew+2)%4)
				got := make([]float32, len(off))
				sgnsDotRows(cGot, mGot, off, got)
				for k := range off {
					if !sameFloat32(got[k], want[k]) {
						t.Fatalf("%s %s dim %d, offsets %v, skew %d: row %d dot = %x, portable = %x", path, what, d, off, skew, k, math.Float32bits(got[k]), math.Float32bits(want[k]))
					}
				}
				sgnsUpdateRows(g, cGot, mGot, off, neuGot, centre)
				for i := range mGot {
					if !sameFloat32(mGot[i], mWant[i]) {
						t.Fatalf("%s %s dim %d, offsets %v, g %v, centre %v, skew %d: sgnsUpdateRows left m[%d] = %x, portable %x", path, what, d, off, g, centre, skew, i, math.Float32bits(mGot[i]), math.Float32bits(mWant[i]))
					}
				}
				for i := range c {
					if !sameFloat32(neuGot[i], neuWant[i]) {
						t.Fatalf("%s %s dim %d, offsets %v, g %v, centre %v, skew %d: sgnsUpdateRows left neu[%d] = %x, portable %x", path, what, d, off, g, centre, skew, i, math.Float32bits(neuGot[i]), math.Float32bits(neuWant[i]))
					}
					if !sameFloat32(cGot[i], cWant[i]) {
						t.Fatalf("%s %s dim %d, offsets %v, g %v, centre %v, skew %d: sgnsUpdateRows left c[%d] = %x, portable %x", path, what, d, off, g, centre, skew, i, math.Float32bits(cGot[i]), math.Float32bits(cWant[i]))
					}
				}
			}
		})
	}
}

// TestSGNSKernelsBitEqualPortable is the kernel contract's oracle test
// (sgns.go), on every kernel path this machine has: every dimension from
// an empty main loop through two tails past the default 100, 0 to 8 rows
// — repeated ones among them — on operands at every 4-byte offset from
// a 16-byte boundary (assertSGNSKernelsAgree).
func TestSGNSKernelsBitEqualPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	uniform := func() float32 { return rng.Float32()*2 - 1 }
	special := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 0, float32(math.Copysign(0, -1)), 1, -1}
	gens := map[string]func() float32{
		"uniform": uniform,
		// Wide exponent range: partial sums cancel and round differently
		// under any other summation order.
		"wide": func() float32 { return uniform() * float32(math.Pow(2, float64(rng.Intn(40)-20))) },
		// Denormal products and sums (no flush-to-zero on either path).
		"denormal": func() float32 { return uniform() * 1e-22 },
		// Inf - Inf and 0 · Inf make NaN in both or in neither, and one
		// NaN takes over its lane, and only its lane of the rows and neu.
		"specials": func() float32 {
			if rng.Intn(8) == 0 {
				return special[rng.Intn(len(special))]
			}
			return uniform()
		},
	}
	for what, gen := range gens {
		for d := 1; d <= 130; d++ {
			for rows := 0; rows <= 8; rows++ {
				cut := func(n int) []float32 {
					off := rng.Intn(4)
					buf := make([]float32, n+off)
					for i := range buf {
						buf[i] = gen()
					}
					return buf[off:]
				}
				// rows+1 row slots, one never stepped; after the first
				// trial, rows draw their slots with repeats.
				slots := rows + 1
				for trial := 0; trial < 2; trial++ {
					off := make([]int, rows)
					for k := range off {
						off[k] = k * d
						if trial > 0 {
							off[k] = rng.Intn(slots) * d
						}
					}
					g := cut(rows)
					if rows > 0 && trial == 0 {
						g[0] = 0 // a saturated sigmoid: the step must leave finite rows alone
					}
					assertSGNSKernelsAgree(t, what, g, cut(d), cut(slots*d), off, cut(d))
				}
			}
		}
	}
	sgnsPaths(func(path string) {
		m, neu, c := []float32{1, 2, 3, 4, 5}, []float32{6, 7, 8, 9, 10}, []float32{1, 1, 1, 1, 1}
		sgnsUpdateRows([]float32{0}, c, m, []int{0}, neu, false)
		for i := range m {
			if m[i] != float32(i+1) || neu[i] != float32(i+6) || c[i] != 1 {
				t.Fatalf("%s: g = 0 moved element %d: o %v neu %v c %v", path, i, m[i], neu[i], c[i])
			}
		}
		// No rows, centre on: the centre's add alone.
		sgnsUpdateRows(nil, c, m, nil, neu, true)
		for i := range c {
			if c[i] != float32(i+7) || neu[i] != float32(i+6) {
				t.Fatalf("%s: a rowless centre step left c[%d] = %v, neu %v", path, i, c[i], neu[i])
			}
		}
		out := []float32{1}
		if sgnsDotRows(nil, nil, []int{0}, out); math.Float32bits(out[0]) != 0 {
			t.Fatalf("%s: empty dot = %x, want +0", path, math.Float32bits(out[0]))
		}
	})
}

// TestSGNSKernelsRejectShortOperands pins the bounds checks in front of
// the assembly, which reads and writes through raw pointers.
func TestSGNSKernelsRejectShortOperands(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	v := func(n int) []float32 { return make([]float32, n) }
	mustPanic("sgnsDotRows with a short out", func() { sgnsDotRows(v(8), v(16), []int{0, 8}, v(1)) })
	mustPanic("sgnsDotRows with a row past the end", func() { sgnsDotRows(v(8), v(15), []int{0, 8}, v(2)) })
	mustPanic("sgnsDotRows with a negative offset", func() { sgnsDotRows(v(8), v(16), []int{-1}, v(1)) })
	mustPanic("sgnsDotRows with a row wider than the matrix", func() { sgnsDotRows(v(8), v(7), []int{0}, v(1)) })
	mustPanic("sgnsUpdateRows with a short g", func() { sgnsUpdateRows(v(1), v(8), v(16), []int{0, 8}, v(8), false) })
	mustPanic("sgnsUpdateRows with a short neu", func() { sgnsUpdateRows(v(1), v(8), v(8), []int{0}, v(7), false) })
	mustPanic("sgnsUpdateRows with a short neu and no rows", func() { sgnsUpdateRows(nil, v(8), v(8), nil, v(7), true) })
	mustPanic("sgnsUpdateRows with a row past the end", func() { sgnsUpdateRows(v(2), v(8), v(15), []int{0, 8}, v(8), true) })
	mustPanic("sgnsUpdateRows with a negative offset", func() { sgnsUpdateRows(v(1), v(8), v(16), []int{-8}, v(8), false) })
}

// FuzzSGNSKernels reads a row count and each row's slot from the first
// bytes, then reinterprets the rest as float32 words — every bit pattern,
// NaN payloads and denormals included: one step per row, then per element
// c, neu and one value per slot. It holds the kernels, on every path
// this machine has, to the portable pair on them, repeated rows included.
func FuzzSGNSKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte{1, 0}, binary.LittleEndian.AppendUint32(nil, math.Float32bits(0.5))...))
	seed := []byte{6, 0, 1, 2, 3, 4, 5}
	for i := 0; i < 6; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(-0.0125*float32(i+1)))
	}
	for i := 0; i < 8*13; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(float32(i)/7-2))
	}
	f.Add(seed)
	inf := binary.LittleEndian.AppendUint32(nil, 0x7f800000)
	f.Add(append(append(append([]byte{2, 1, 1}, inf...), inf...), append(append(inf, 0, 0, 0, 0), 0xff, 0xff, 0xff, 0xff)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := 0
		if len(data) > 0 {
			rows, data = int(data[0])%9, data[1:]
		}
		slot := make([]int, rows)
		for k := range slot {
			slot[k] = k
			if len(data) > 0 {
				slot[k], data = int(data[0])%rows, data[1:]
			}
		}
		words := len(data) / 4
		word := func(i int) float32 {
			if i >= words {
				return 0
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		g := make([]float32, rows)
		for k := range g {
			g[k] = word(k)
		}
		d := min(max(words-rows, 0)/(2+rows), 512)
		c, neu, m := make([]float32, d), make([]float32, d), make([]float32, rows*d)
		for i := 0; i < d; i++ {
			w := rows + i*(2+rows)
			c[i], neu[i] = word(w), word(w+1)
			for s := 0; s < rows; s++ {
				m[s*d+i] = word(w + 2 + s)
			}
		}
		off := make([]int, rows)
		for k, s := range slot {
			off[k] = s * d
		}
		assertSGNSKernelsAgree(t, "fuzz", g, c, m, off, neu)
	})
}
