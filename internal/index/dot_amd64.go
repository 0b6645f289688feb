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

// useAVX2 selects the four-query kernel for the batch scan: set at init
// when the CPU has AVX2 and the OS saves YMM state. Tests clear it to run
// the dot32x4 fallback on the same machine.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// dot32q4x4 scores four chunk-interleaved queries (interleave4) against
// four rows of m at the element offsets off: out[4*i+j] is query i
// against row j, the bits of dot32x4. AVX2 only; the query width must be
// a multiple of 4.
func dot32q4x4(qi, m []float32, off *[4]int, out *[16]float32) {
	d := len(qi) / 4
	last := uint(len(m) - d)
	if len(qi)%16 != 0 || d > len(m) || uint(off[0]) > last || uint(off[1]) > last || uint(off[2]) > last || uint(off[3]) > last {
		panic("index: dot32q4x4 row outside the matrix")
	}
	dot32q4x4Asm(qi, m, off, out)
}

// The assembly reads len(a) values through the second pointer (resp.
// len(q) from each of four offsets into m, len(qi)/4 for dot32q4x4Asm)
// without a bounds check; the wrappers above are the check.

//go:noescape
func dot32Asm(a, b []float32) float32

//go:noescape
func dot32x4Asm(q, m []float32, off *[4]int, out *[4]float32)

//go:noescape
func dot32q4x4Asm(qi, m []float32, off *[4]int, out *[16]float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
