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

// func dot32x4Asm(q, rows []float32, out *[4]float32)
//
// Four independent accumulator registers, one per row, share each load
// of q: four add chains in flight instead of one.
TEXT ·dot32x4Asm(SB), NOSPLIT, $0-56
	MOVQ  q_base+0(FP), SI
	MOVQ  q_len+8(FP), CX
	MOVQ  rows_base+24(FP), DI
	MOVQ  out+48(FP), R8
	LEAQ  (DI)(CX*4), R9     // row 1
	LEAQ  (R9)(CX*4), R10    // row 2
	LEAQ  (R10)(CX*4), R11   // row 3
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
