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

// assertSGNSKernelsAgree runs sgnsDot and sgnsUpdate — whatever they
// compile to on this architecture — and the portable pair over copies of
// the same operands and wants the same dot and the same o and neu
// afterwards; c must come back untouched.
func assertSGNSKernelsAgree(t *testing.T, what string, g float32, c, o, neu []float32) {
	t.Helper()
	if got, want := sgnsDot(c, o), sgnsDotPortable(c, o); !sameFloat32(got, want) {
		t.Fatalf("%s dim %d: sgnsDot = %x, portable = %x", what, len(c), math.Float32bits(got), math.Float32bits(want))
	}
	c0 := append([]float32(nil), c...)
	o2, neu2 := append([]float32(nil), o...), append([]float32(nil), neu...)
	sgnsUpdate(g, c, o, neu)
	sgnsUpdatePortable(g, c0, o2, neu2)
	for i := range c {
		if !sameFloat32(o[i], o2[i]) || !sameFloat32(neu[i], neu2[i]) {
			t.Fatalf("%s dim %d, g %v, element %d: sgnsUpdate left o %x neu %x, portable o %x neu %x", what, len(c), g, i,
				math.Float32bits(o[i]), math.Float32bits(neu[i]), math.Float32bits(o2[i]), math.Float32bits(neu2[i]))
		}
		if math.Float32bits(c[i]) != math.Float32bits(c0[i]) {
			t.Fatalf("%s dim %d: sgnsUpdate wrote c[%d]", what, len(c), i)
		}
	}
}

// TestSGNSKernelsBitEqualPortable is the kernel contract's oracle test
// (sgns.go): every dimension from an empty main loop through two tails
// past the default 100, on operands cut from larger buffers at odd
// offsets — the kernels must not assume 16-byte alignment.
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
		// NaN takes over its lane, and only its lane of o and neu.
		"specials": func() float32 {
			if rng.Intn(8) == 0 {
				return special[rng.Intn(len(special))]
			}
			return uniform()
		},
	}
	for what, gen := range gens {
		for d := 1; d <= 130; d++ {
			for trial := 0; trial < 4; trial++ {
				cut := func() []float32 {
					off := rng.Intn(4)
					buf := make([]float32, d+off)
					for i := range buf {
						buf[i] = gen()
					}
					return buf[off:]
				}
				g := gen()
				if trial == 0 {
					g = 0 // a saturated sigmoid: the step must leave finite rows alone
				}
				assertSGNSKernelsAgree(t, what, g, cut(), cut(), cut())
			}
		}
	}
	o, neu := []float32{1, 2, 3, 4, 5}, []float32{6, 7, 8, 9, 10}
	sgnsUpdate(0, []float32{1, 1, 1, 1, 1}, o, neu)
	for i := range o {
		if o[i] != float32(i+1) || neu[i] != float32(i+6) {
			t.Fatalf("g = 0 moved element %d: o %v neu %v", i, o[i], neu[i])
		}
	}
	if got := sgnsDot(nil, nil); math.Float32bits(got) != 0 {
		t.Fatalf("empty dot = %x, want +0", math.Float32bits(got))
	}
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
	mustPanic("sgnsDot with a short second operand", func() { sgnsDot(v(8), v(7)) })
	mustPanic("sgnsUpdate with a short o", func() { sgnsUpdate(1, v(8), v(7), v(8)) })
	mustPanic("sgnsUpdate with a short neu", func() { sgnsUpdate(1, v(8), v(8), v(7)) })
}

// FuzzSGNSKernels reinterprets arbitrary bytes as g followed by (c, o,
// neu) float32 triples — every bit pattern, NaN payloads and denormals
// included — and holds the kernels to the portable pair on them.
func FuzzSGNSKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, math.Float32bits(0.5)))
	seed := binary.LittleEndian.AppendUint32(nil, math.Float32bits(-0.0125))
	for i := 0; i < 3*13; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(float32(i)/7-2))
	}
	f.Add(seed)
	inf := binary.LittleEndian.AppendUint32(nil, 0x7f800000)
	f.Add(append(append(append(inf, inf...), 0, 0, 0, 0), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		word := func(i int) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])) }
		var g float32
		if len(data) >= 4 {
			g = word(0)
		}
		d := min((len(data)/4-1)/3, 512) // 0 for anything under four words
		c, o, neu := make([]float32, d), make([]float32, d), make([]float32, d)
		for i := range c {
			c[i], o[i], neu[i] = word(1+3*i), word(2+3*i), word(3+3*i)
		}
		assertSGNSKernelsAgree(t, "fuzz", g, c, o, neu)
	})
}
