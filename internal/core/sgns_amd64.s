#include "textflag.h"

// The contract these routines implement is stated in sgns.go. The first
// pair is baseline SSE2, the second AVX (sgns_amd64.go picks one at
// init); neither uses FMA, so every product is rounded before its add,
// as in the portable code. AX is the byte offset into c, neu and every
// row; a row starts at m + 4*off[k] bytes.

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

// func sgnsUpdateRowsAsm(g, c, m []float32, off []int, neu []float32, centre bool)
//
// Four elements of c and neu stay in X2 and X3 while every row's four
// elements are read, stepped and written back in row order, so a
// repeated row sees its own earlier write; then neu is stored and, with
// centre set, c + neu is stored to c.
TEXT ·sgnsUpdateRowsAsm(SB), NOSPLIT, $0-121
	MOVQ    g_base+0(FP), R11
	MOVQ    c_base+24(FP), SI
	MOVQ    c_len+32(FP), CX
	MOVQ    m_base+48(FP), BX
	MOVQ    off_base+72(FP), R8
	MOVQ    off_len+80(FP), R9
	MOVQ    neu_base+96(FP), R10
	MOVBQZX centre+120(FP), R13
	XORQ    AX, AX
	MOVQ    CX, DX
	SHRQ    $2, DX           // groups of four
	JZ      utail

uloop:
	MOVUPS (SI)(AX*1), X2    // c
	MOVUPS (R10)(AX*1), X3   // neu
	XORQ   R12, R12          // k
	TESTQ  R9, R9
	JZ     urowsdone

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

urowsdone:
	MOVUPS X3, (R10)(AX*1)
	TESTQ  R13, R13
	JZ     unext
	ADDPS  X3, X2            // c += neu
	MOVUPS X2, (SI)(AX*1)

unext:
	ADDQ $16, AX
	DECQ DX
	JNZ  uloop

utail:
	ANDQ $3, CX
	JZ   udone

utailloop:
	MOVSS (SI)(AX*1), X2
	MOVSS (R10)(AX*1), X3
	XORQ  R12, R12
	TESTQ R9, R9
	JZ    utailrowsdone

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

utailrowsdone:
	MOVSS X3, (R10)(AX*1)
	TESTQ R13, R13
	JZ    utailnext
	ADDSS X3, X2
	MOVSS X2, (SI)(AX*1)

utailnext:
	ADDQ $4, AX
	DECQ CX
	JNZ  utailloop

udone:
	RET

// func sgnsDotRowsAVX(c, m []float32, off []int, out []float32)
//
// Two rows per pass, c read once for both: each row's eight lanes sit in
// one YMM register (Y0, Y1). After the groups of eight, lanes 4..7 move
// to X5/X6 and the group of four, the tail and the reduction run on
// lanes 0..3 as in the SSE2 kernel. An odd last row is paired with
// itself and both of its equal sums are stored to its one slot.
TEXT ·sgnsDotRowsAVX(SB), NOSPLIT, $0-96
	MOVQ  c_base+0(FP), SI
	MOVQ  c_len+8(FP), CX
	MOVQ  m_base+24(FP), BX
	MOVQ  off_base+48(FP), R8
	MOVQ  off_len+56(FP), R9
	MOVQ  out_base+72(FP), R10
	TESTQ R9, R9
	JZ    vdone

	MOVQ CX, DX
	SHLQ $2, DX              // row bytes
	MOVQ R8, R13
	MOVQ R9, R12

vpf:
	MOVQ       (R13), DI
	LEAQ       (BX)(DI*4), DI
	XORQ       AX, AX

vpfline:
	PREFETCHT0 (DI)(AX*1)
	ADDQ       $64, AX
	CMPQ       AX, DX
	JLT        vpfline
	PREFETCHT0 -4(DI)(DX*1)
	ADDQ       $8, R13
	DECQ       R12
	JNZ        vpf

vpair:
	MOVQ   (R8), DI
	LEAQ   (BX)(DI*4), DI    // row k
	MOVQ   DI, R11           // row k+1, or row k again if it is the last
	XORQ   R12, R12          // out offset of row k+1's sum
	CMPQ   R9, $2
	JLT    vrows
	MOVQ   8(R8), R11
	LEAQ   (BX)(R11*4), R11
	MOVQ   $4, R12

vrows:
	VXORPS Y0, Y0, Y0        // row k's lanes s0..s7
	VXORPS Y1, Y1, Y1        // row k+1's
	XORQ   AX, AX
	MOVQ   CX, DX
	SHRQ   $3, DX
	JZ     vfour

vloop8:
	VMOVUPS (SI)(AX*1), Y2
	VMULPS  (DI)(AX*1), Y2, Y3
	VMULPS  (R11)(AX*1), Y2, Y4
	VADDPS  Y3, Y0, Y0
	VADDPS  Y4, Y1, Y1
	ADDQ    $32, AX
	DECQ    DX
	JNZ     vloop8

vfour:
	VEXTRACTF128 $1, Y0, X5  // s4..s7, before a 128-bit op clears them
	VEXTRACTF128 $1, Y1, X6
	TESTQ        $4, CX
	JZ           vtail
	VMOVUPS      (SI)(AX*1), X2
	VMULPS       (DI)(AX*1), X2, X3
	VMULPS       (R11)(AX*1), X2, X4
	VADDPS       X3, X0, X0
	VADDPS       X4, X1, X1
	ADDQ         $16, AX

vtail:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   vreduce

vtailloop:
	VMOVSS (SI)(AX*1), X2
	VMULSS (DI)(AX*1), X2, X3
	VMULSS (R11)(AX*1), X2, X4
	VADDSS X3, X0, X0
	VADDSS X4, X1, X1
	ADDQ   $4, AX
	DECQ   DX
	JNZ    vtailloop

vreduce:
	VADDPS  X5, X0, X0       // t_j = s_j + s_{j+4}
	VADDPS  X6, X1, X1
	VPSHUFD $0x55, X0, X2
	VPSHUFD $0xAA, X0, X3
	VPSHUFD $0xFF, X0, X4
	VADDSS  X2, X0, X0
	VADDSS  X3, X0, X0
	VADDSS  X4, X0, X0
	VPSHUFD $0x55, X1, X2
	VPSHUFD $0xAA, X1, X3
	VPSHUFD $0xFF, X1, X4
	VADDSS  X2, X1, X1
	VADDSS  X3, X1, X1
	VADDSS  X4, X1, X1
	VMOVSS  X0, (R10)
	VMOVSS  X1, (R10)(R12*1)
	ADDQ    $16, R8
	ADDQ    $8, R10
	SUBQ    $2, R9
	JGT     vpair

vdone:
	VZEROUPPER
	RET

// func sgnsUpdateRowsAVX(g, c, m []float32, off []int, neu []float32, centre bool)
//
// Row by row, in row order: each row is stepped over all its elements,
// eight at a time, then a group of four and up to three singles, neu read
// and written beside it. Every element still sees the rows in the
// contract's k order, and a repeated row its own earlier write. With
// centre set, a last pass over the elements adds neu to c, which no row
// reads any more.
TEXT ·sgnsUpdateRowsAVX(SB), NOSPLIT, $0-121
	MOVQ    g_base+0(FP), R11
	MOVQ    c_base+24(FP), SI
	MOVQ    c_len+32(FP), CX
	MOVQ    m_base+48(FP), BX
	MOVQ    off_base+72(FP), R8
	MOVQ    off_len+80(FP), R9
	MOVQ    neu_base+96(FP), R10
	MOVBQZX centre+120(FP), R13
	TESTQ   R9, R9
	JZ      vucentre

vurow:
	VBROADCASTSS (R11), Y7   // g[k] in every lane
	MOVQ         (R8), DI
	LEAQ         (BX)(DI*4), DI
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           vufour

vuloop8:
	VMOVUPS (DI)(AX*1), Y1   // o, as read
	VMULPS  Y7, Y1, Y4
	VADDPS  (R10)(AX*1), Y4, Y4
	VMOVUPS Y4, (R10)(AX*1)  // neu += g·o
	VMULPS  (SI)(AX*1), Y7, Y5
	VADDPS  Y5, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)   // o += g·c
	ADDQ    $32, AX
	DECQ    DX
	JNZ     vuloop8

vufour:
	TESTQ   $4, CX
	JZ      vutail
	VMOVUPS (DI)(AX*1), X1
	VMULPS  X7, X1, X4
	VADDPS  (R10)(AX*1), X4, X4
	VMOVUPS X4, (R10)(AX*1)
	VMULPS  (SI)(AX*1), X7, X5
	VADDPS  X5, X1, X1
	VMOVUPS X1, (DI)(AX*1)
	ADDQ    $16, AX

vutail:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   vunext

vutailloop:
	VMOVSS (DI)(AX*1), X1
	VMULSS X7, X1, X4
	VADDSS (R10)(AX*1), X4, X4
	VMOVSS X4, (R10)(AX*1)
	VMULSS (SI)(AX*1), X7, X5
	VADDSS X5, X1, X1
	VMOVSS X1, (DI)(AX*1)
	ADDQ   $4, AX
	DECQ   DX
	JNZ    vutailloop

vunext:
	ADDQ $4, R11
	ADDQ $8, R8
	DECQ R9
	JNZ  vurow

vucentre:
	TESTQ R13, R13
	JZ    vudone
	XORQ  AX, AX
	MOVQ  CX, DX
	SHRQ  $3, DX
	JZ    vcfour

vcloop8:
	VMOVUPS (SI)(AX*1), Y1
	VADDPS  (R10)(AX*1), Y1, Y1
	VMOVUPS Y1, (SI)(AX*1)   // c += neu
	ADDQ    $32, AX
	DECQ    DX
	JNZ     vcloop8

vcfour:
	TESTQ   $4, CX
	JZ      vctail
	VMOVUPS (SI)(AX*1), X1
	VADDPS  (R10)(AX*1), X1, X1
	VMOVUPS X1, (SI)(AX*1)
	ADDQ    $16, AX

vctail:
	ANDQ $3, CX
	JZ   vudone

vctailloop:
	VMOVSS (SI)(AX*1), X1
	VADDSS (R10)(AX*1), X1, X1
	VMOVSS X1, (SI)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JNZ    vctailloop

vudone:
	VZEROUPPER
	RET
