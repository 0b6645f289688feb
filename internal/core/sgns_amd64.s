#include "textflag.h"

// The contract these routines implement is stated in sgns.go. Baseline
// SSE2 only — no FMA, no AVX — so every product is rounded before its
// add, as in the portable code. AX is the byte offset into every row.

// func sgnsDotAsm(a, b []float32) float32
TEXT ·sgnsDotAsm(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORPS X0, X0             // lanes s0..s3
	XORPS X1, X1             // lanes s4..s7
	XORQ  AX, AX
	MOVQ  CX, DX
	SHRQ  $3, DX             // groups of eight
	JZ    four

loop8:
	MOVUPS (SI)(AX*1), X2
	MOVUPS 16(SI)(AX*1), X3
	MOVUPS (DI)(AX*1), X4
	MOVUPS 16(DI)(AX*1), X5
	MULPS  X4, X2
	MULPS  X5, X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	ADDQ   $32, AX
	DECQ   DX
	JNZ    loop8

four:
	TESTQ $4, CX
	JZ    tail
	MOVUPS (SI)(AX*1), X2
	MOVUPS (DI)(AX*1), X4
	MULPS  X4, X2
	ADDPS  X2, X0            // lanes 0..3 only
	ADDQ   $16, AX

tail:
	ANDQ $3, CX
	JZ   reduce

tailloop:
	MOVSS (SI)(AX*1), X2
	MULSS (DI)(AX*1), X2
	ADDSS X2, X0             // lane 0 only
	ADDQ  $4, AX
	DECQ  CX
	JNZ   tailloop

reduce:
	ADDPS  X1, X0            // t_j = s_j + s_{j+4}
	PSHUFD $0x55, X0, X1     // t1
	PSHUFD $0xAA, X0, X2     // t2
	PSHUFD $0xFF, X0, X3     // t3
	ADDSS  X1, X0
	ADDSS  X2, X0
	ADDSS  X3, X0
	MOVSS  X0, ret+48(FP)
	RET

// func sgnsUpdateAsm(grad float32, c, o, neu []float32)
TEXT ·sgnsUpdateAsm(SB), NOSPLIT, $0-80
	MOVSS  grad+0(FP), X7
	SHUFPS $0x00, X7, X7     // g = grad in every lane
	MOVQ   c_base+8(FP), SI
	MOVQ   c_len+16(FP), CX
	MOVQ   o_base+32(FP), DI
	MOVQ   neu_base+56(FP), R8
	XORQ   AX, AX
	MOVQ   CX, DX
	SHRQ   $2, DX            // groups of four
	JZ     utail

uloop:
	MOVUPS (DI)(AX*1), X1    // o, as read
	MOVUPS (SI)(AX*1), X2    // c
	MOVUPS (R8)(AX*1), X3    // neu
	MOVAPS X1, X4
	MULPS  X7, X4
	ADDPS  X4, X3            // neu += g·o
	MOVUPS X3, (R8)(AX*1)
	MULPS  X7, X2
	ADDPS  X2, X1            // o += g·c
	MOVUPS X1, (DI)(AX*1)
	ADDQ   $16, AX
	DECQ   DX
	JNZ    uloop

utail:
	ANDQ $3, CX
	JZ   udone

utailloop:
	MOVSS  (DI)(AX*1), X1
	MOVSS  (SI)(AX*1), X2
	MOVSS  (R8)(AX*1), X3
	MOVAPS X1, X4
	MULSS  X7, X4
	ADDSS  X4, X3
	MOVSS  X3, (R8)(AX*1)
	MULSS  X7, X2
	ADDSS  X2, X1
	MOVSS  X1, (DI)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JNZ    utailloop

udone:
	RET
