#include "textflag.h"

// The contract these routines implement is stated in sgns.go. Baseline
// SSE2 only — no FMA, no AVX — so every product is rounded before its
// add, as in the portable code. AX is the byte offset into c, neu and
// every row; a row starts at m + 4*off[k] bytes.

// func sgnsDotRowsAsm(c, m []float32, off []int, out []float32)
TEXT ·sgnsDotRowsAsm(SB), NOSPLIT, $0-96
	MOVQ  c_base+0(FP), SI
	MOVQ  c_len+8(FP), CX
	MOVQ  m_base+24(FP), BX
	MOVQ  off_base+48(FP), R8
	MOVQ  off_len+56(FP), R9
	MOVQ  out_base+72(FP), R10
	TESTQ R9, R9
	JZ    done

	// Prefetch every row's cache lines first, so that their misses
	// overlap instead of each stalling its own row's sums.
	MOVQ CX, DX
	SHLQ $2, DX              // row bytes
	MOVQ R8, R13
	MOVQ R9, R12

pf:
	MOVQ       (R13), DI
	LEAQ       (BX)(DI*4), DI
	XORQ       AX, AX

pfline:
	PREFETCHT0 (DI)(AX*1)
	ADDQ       $64, AX
	CMPQ       AX, DX
	JLT        pfline
	PREFETCHT0 -4(DI)(DX*1)  // the row's last line, when it straddles one more
	ADDQ       $8, R13
	DECQ       R12
	JNZ        pf

row:
	MOVQ  (R8), DI
	LEAQ  (BX)(DI*4), DI     // this row
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
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   reduce

tailloop:
	MOVSS (SI)(AX*1), X2
	MULSS (DI)(AX*1), X2
	ADDSS X2, X0             // lane 0 only
	ADDQ  $4, AX
	DECQ  DX
	JNZ   tailloop

reduce:
	ADDPS  X1, X0            // t_j = s_j + s_{j+4}
	PSHUFD $0x55, X0, X1     // t1
	PSHUFD $0xAA, X0, X2     // t2
	PSHUFD $0xFF, X0, X3     // t3
	ADDSS  X1, X0
	ADDSS  X2, X0
	ADDSS  X3, X0
	MOVSS  X0, (R10)
	ADDQ   $8, R8
	ADDQ   $4, R10
	DECQ   R9
	JNZ    row

done:
	RET

// func sgnsUpdateRowsAsm(g, c, m []float32, off []int, neu []float32)
//
// Four elements of c and neu stay in X2 and X3 while every row's four
// elements are read, stepped and written back in row order, so a
// repeated row sees its own earlier write.
TEXT ·sgnsUpdateRowsAsm(SB), NOSPLIT, $0-120
	MOVQ  g_base+0(FP), R11
	MOVQ  c_base+24(FP), SI
	MOVQ  c_len+32(FP), CX
	MOVQ  m_base+48(FP), BX
	MOVQ  off_base+72(FP), R8
	MOVQ  off_len+80(FP), R9
	MOVQ  neu_base+96(FP), R10
	TESTQ R9, R9
	JZ    udone
	XORQ  AX, AX
	MOVQ  CX, DX
	SHRQ  $2, DX             // groups of four
	JZ    utail

uloop:
	MOVUPS (SI)(AX*1), X2    // c
	MOVUPS (R10)(AX*1), X3   // neu
	XORQ   R12, R12          // k

urow:
	MOVSS  (R11)(R12*4), X7
	SHUFPS $0x00, X7, X7     // g[k] in every lane
	MOVQ   (R8)(R12*8), DI
	LEAQ   (BX)(DI*4), DI
	MOVUPS (DI)(AX*1), X1    // o, as read
	MOVAPS X1, X4
	MULPS  X7, X4
	ADDPS  X4, X3            // neu += g·o
	MULPS  X2, X7
	ADDPS  X7, X1            // o += g·c
	MOVUPS X1, (DI)(AX*1)
	INCQ   R12
	CMPQ   R12, R9
	JNE    urow
	MOVUPS X3, (R10)(AX*1)
	ADDQ   $16, AX
	DECQ   DX
	JNZ    uloop

utail:
	ANDQ $3, CX
	JZ   udone

utailloop:
	MOVSS (SI)(AX*1), X2
	MOVSS (R10)(AX*1), X3
	XORQ  R12, R12

utailrow:
	MOVSS  (R11)(R12*4), X7
	MOVQ   (R8)(R12*8), DI
	LEAQ   (BX)(DI*4), DI
	MOVSS  (DI)(AX*1), X1
	MOVAPS X1, X4
	MULSS  X7, X4
	ADDSS  X4, X3
	MULSS  X2, X7
	ADDSS  X7, X1
	MOVSS  X1, (DI)(AX*1)
	INCQ   R12
	CMPQ   R12, R9
	JNE    utailrow
	MOVSS  X3, (R10)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JNZ    utailloop

udone:
	RET
