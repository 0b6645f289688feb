#include "textflag.h"

// The lane contract these routines implement is stated in dot.go: four
// partial sums in one SSE register (baseline SSE2 only — no FMA, no
// AVX), the len%4 tail folded into lane 0, reduction ((s0+s1)+s2)+s3.

// func dot32Asm(a, b []float32) float32
TEXT ·dot32Asm(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORPS X0, X0             // lanes s0..s3
	MOVQ  CX, DX
	SHRQ  $2, DX             // groups of four
	JZ    tail

loop:
	MOVUPS (SI), X1
	MOVUPS (DI), X2
	MULPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   DX
	JNZ    loop

tail:
	ANDQ $3, CX
	JZ   reduce

tailloop:
	MOVSS (SI), X1
	MULSS (DI), X1
	ADDSS X1, X0             // lane 0 only
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   tailloop

reduce:
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1     // s1
	MOVAPS X0, X2
	SHUFPS $0xAA, X2, X2     // s2
	MOVAPS X0, X3
	SHUFPS $0xFF, X3, X3     // s3
	ADDSS  X1, X0
	ADDSS  X2, X0
	ADDSS  X3, X0
	MOVSS  X0, ret+48(FP)
	RET

// func dot32x4Asm(q, m []float32, off *[4]int, out *[4]float32)
//
// Four independent accumulator registers, one per row, share each load
// of q: four add chains in flight instead of one. The rows start at
// m + 4*off[j] bytes, anywhere in the matrix.
TEXT ·dot32x4Asm(SB), NOSPLIT, $0-64
	MOVQ  q_base+0(FP), SI
	MOVQ  q_len+8(FP), CX
	MOVQ  m_base+24(FP), BX
	MOVQ  off+48(FP), DX
	MOVQ  out+56(FP), R8
	MOVQ  (DX), DI
	LEAQ  (BX)(DI*4), DI     // row 0
	MOVQ  8(DX), R9
	LEAQ  (BX)(R9*4), R9     // row 1
	MOVQ  16(DX), R10
	LEAQ  (BX)(R10*4), R10   // row 2
	MOVQ  24(DX), R11
	LEAQ  (BX)(R11*4), R11   // row 3
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX             // byte offset into q and every row
	MOVQ  CX, DX
	SHRQ  $2, DX
	JZ    tail4

loop4:
	MOVUPS (SI)(AX*1), X4
	MOVUPS (DI)(AX*1), X5
	MOVUPS (R9)(AX*1), X6
	MOVUPS (R10)(AX*1), X7
	MOVUPS (R11)(AX*1), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $16, AX
	DECQ   DX
	JNZ    loop4

tail4:
	ANDQ $3, CX
	JZ   reduce4

tailloop4:
	MOVSS (SI)(AX*1), X4
	MOVSS (DI)(AX*1), X5
	MOVSS (R9)(AX*1), X6
	MOVSS (R10)(AX*1), X7
	MOVSS (R11)(AX*1), X8
	MULSS X4, X5
	MULSS X4, X6
	MULSS X4, X7
	MULSS X4, X8
	ADDSS X5, X0
	ADDSS X6, X1
	ADDSS X7, X2
	ADDSS X8, X3
	ADDQ  $4, AX
	DECQ  CX
	JNZ   tailloop4

reduce4:
	// Transpose the four lane registers so lane j of every row sits in
	// one register, then add them in contract order: (T0+T1)+T2)+T3.
	MOVAPS   X0, X4
	UNPCKLPS X1, X0          // r0.s0 r1.s0 r0.s1 r1.s1
	UNPCKHPS X1, X4          // r0.s2 r1.s2 r0.s3 r1.s3
	MOVAPS   X2, X5
	UNPCKLPS X3, X2          // r2.s0 r3.s0 r2.s1 r3.s1
	UNPCKHPS X3, X5          // r2.s2 r3.s2 r2.s3 r3.s3
	MOVAPS   X0, X1
	MOVLHPS  X2, X0          // T0: s0 of rows 0..3
	MOVHLPS  X1, X2          // T1: s1 of rows 0..3
	MOVAPS   X4, X3
	MOVLHPS  X5, X4          // T2
	MOVHLPS  X3, X5          // T3
	ADDPS    X2, X0
	ADDPS    X4, X0
	ADDPS    X5, X0
	MOVUPS   X0, (R8)
	RET

// func dot32q4x4Asm(qi, m []float32, off *[4]int, out *[16]float32)
//
// Four queries against four rows, AVX2. qi holds the queries
// chunk-interleaved (interleave4 in dot.go): per 4-element chunk, the
// chunk of query 0, 1, 2, 3. One VBROADCASTF128 puts a row chunk in both
// halves of a YMM register; a multiply against Y8 (queries 0|1) or Y9
// (queries 2|3) then serves two queries, each half one (query, row)
// pair's four lanes. Every lane is dot32Asm's: a separate VMULPS and
// VADDPS per chunk, no FMA. len(qi)/4 is a multiple of 4 (the caller
// checks), so there is no tail. out[4*i+j] is query i against row j.
TEXT ·dot32q4x4Asm(SB), NOSPLIT, $0-64
	MOVQ   qi_base+0(FP), SI
	MOVQ   qi_len+8(FP), CX
	MOVQ   m_base+24(FP), BX
	MOVQ   off+48(FP), DX
	MOVQ   out+56(FP), R8
	MOVQ   (DX), DI
	LEAQ   (BX)(DI*4), DI    // row 0
	MOVQ   8(DX), R9
	LEAQ   (BX)(R9*4), R9    // row 1
	MOVQ   16(DX), R10
	LEAQ   (BX)(R10*4), R10  // row 2
	MOVQ   24(DX), R11
	LEAQ   (BX)(R11*4), R11  // row 3
	VXORPS Y0, Y0, Y0        // row 0: queries 0|1
	VXORPS Y1, Y1, Y1        // row 0: queries 2|3
	VXORPS Y2, Y2, Y2        // row 1 ...
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX            // byte offset into every row
	SHRQ   $4, CX            // chunks: 16 interleaved floats each
	JZ     reduceq4

loopq4:
	VMOVUPS        (SI), Y8
	VMOVUPS        32(SI), Y9
	VBROADCASTF128 (DI)(AX*1), Y10
	VBROADCASTF128 (R9)(AX*1), Y11
	VMULPS         Y8, Y10, Y12
	VMULPS         Y9, Y10, Y13
	VMULPS         Y8, Y11, Y14
	VMULPS         Y9, Y11, Y15
	VADDPS         Y12, Y0, Y0
	VADDPS         Y13, Y1, Y1
	VADDPS         Y14, Y2, Y2
	VADDPS         Y15, Y3, Y3
	VBROADCASTF128 (R10)(AX*1), Y10
	VBROADCASTF128 (R11)(AX*1), Y11
	VMULPS         Y8, Y10, Y12
	VMULPS         Y9, Y10, Y13
	VMULPS         Y8, Y11, Y14
	VMULPS         Y9, Y11, Y15
	VADDPS         Y12, Y4, Y4
	VADDPS         Y13, Y5, Y5
	VADDPS         Y14, Y6, Y6
	VADDPS         Y15, Y7, Y7
	ADDQ           $64, SI
	ADDQ           $16, AX
	DECQ           CX
	JNZ            loopq4

reduceq4:
	// dot32x4Asm's transpose, on both 128-bit halves at once: per half,
	// T_l holds lane l of rows 0..3, summed ((T0+T1)+T2)+T3. The low half
	// is the first query of the pair, so one store writes two queries'
	// four scores in out order.
	VUNPCKLPS Y2, Y0, Y8     // r0.s0 r1.s0 r0.s1 r1.s1
	VUNPCKHPS Y2, Y0, Y9     // r0.s2 r1.s2 r0.s3 r1.s3
	VUNPCKLPS Y6, Y4, Y10    // r2.s0 r3.s0 r2.s1 r3.s1
	VUNPCKHPS Y6, Y4, Y11    // r2.s2 r3.s2 r2.s3 r3.s3
	VSHUFPS   $0x44, Y10, Y8, Y12 // T0
	VSHUFPS   $0xEE, Y10, Y8, Y13 // T1
	VSHUFPS   $0x44, Y11, Y9, Y14 // T2
	VSHUFPS   $0xEE, Y11, Y9, Y15 // T3
	VADDPS    Y13, Y12, Y12
	VADDPS    Y14, Y12, Y12
	VADDPS    Y15, Y12, Y12
	VMOVUPS   Y12, (R8)      // queries 0 and 1
	VUNPCKLPS Y3, Y1, Y8
	VUNPCKHPS Y3, Y1, Y9
	VUNPCKLPS Y7, Y5, Y10
	VUNPCKHPS Y7, Y5, Y11
	VSHUFPS   $0x44, Y10, Y8, Y12
	VSHUFPS   $0xEE, Y10, Y8, Y13
	VSHUFPS   $0x44, Y11, Y9, Y14
	VSHUFPS   $0xEE, Y11, Y9, Y15
	VADDPS    Y13, Y12, Y12
	VADDPS    Y14, Y12, Y12
	VADDPS    Y15, Y12, Y12
	VMOVUPS   Y12, 32(R8)    // queries 2 and 3
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
